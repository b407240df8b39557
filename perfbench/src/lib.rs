//! Same-host benchmark of two waits a user of this toolkit has:
//!
//! * `paper_sweep` — the Fig. 3, 4 and 5 compile sweeps, in figure
//!   order, through one fresh [`Engine`] per pass (1300 rows: 650 cold
//!   compiles and 650 compile-cache hits);
//! * `loss_campaign` — the Fig. 12 point (29-qubit CNU, hardware MID 4,
//!   `CompileSmallReroute`) as a streaming sharded campaign of 10⁶
//!   shots, which compiles once per pass and so bypasses the router.
//!
//! Every timed pass is followed by untimed output checks ([`check_pass`]):
//! schedule verification, campaign conservation and a per-workload
//! output digest that must not change across passes or worker counts.
//! [`replay`] drives the same work through each layer's public
//! functions for the traced per-layer breakdown.

pub mod trace;

use na_arch::Grid;
use na_benchmarks::Benchmark;
use na_circuit::fingerprint::fnv1a_extend;
use na_circuit::Circuit;
use na_core::{ArtifactKey, CompiledCircuit, CompilerConfig, PlacementScratch};
use na_engine::{
    paper, CacheKey, CacheStats, Engine, ExperimentSpec, LossSpec, Outcome, RunRecord, Task,
};
use na_loss::{CampaignConfig, CampaignResult, InteractionSummary, ShotTarget, Strategy};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};
use trace::{Tag, Tracer};

/// Shot-range shards of each campaign row. Fixed, never derived from
/// the host's core count, so rows are identical on any machine.
pub const SHARDS: u32 = 4;
/// Program-size budget of the campaign CNU (29 qubits).
pub const CAMPAIGN_SIZE: u32 = 30;
/// Hardware MID of the campaign point.
pub const CAMPAIGN_MID: f64 = 4.0;
/// Two-qubit gate error of the campaign point.
pub const TWO_QUBIT_ERROR: f64 = 0.035;
/// Loss-coping strategy of the campaign point.
pub const STRATEGY: Strategy = Strategy::CompileSmallReroute;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The Figs. 3–5 compile sweeps.
    PaperSweep,
    /// The Fig. 12 point under `CompileSmallReroute`.
    LossCampaign,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 2] = [Workload::PaperSweep, Workload::LossCampaign];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperSweep => "paper_sweep",
            Workload::LossCampaign => "loss_campaign",
        }
    }

    /// Parses a command-line workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// What one operation of the workload is: an engine row or a shot.
    pub fn op_unit(self) -> &'static str {
        match self {
            Workload::PaperSweep => "rows",
            Workload::LossCampaign => "shots",
        }
    }
}

/// Input sizes. [`Scale::full`] is the benchmark; [`Scale::smoke`] is
/// the reduced size the smoke test runs.
#[derive(Debug, Clone)]
pub struct Scale {
    /// Program sizes of the sweep.
    pub sizes: Vec<u32>,
    /// Shots per `loss_campaign` pass.
    pub shots: u64,
}

impl Scale {
    /// The paper's size ladder and the campaign shot counts.
    pub fn full() -> Self {
        Scale {
            sizes: paper::paper_sizes(),
            shots: 1_000_000,
        }
    }

    /// A few seconds of work in total, for the smoke test.
    pub fn smoke() -> Self {
        Scale {
            sizes: vec![10, 20],
            shots: 20_000,
        }
    }
}

/// The compile point one row reads from the compile cache.
#[derive(Debug, Clone)]
pub struct Point {
    /// Index of the row's spec in [`Input::specs`].
    pub spec: usize,
    /// Index into [`Input::circuits`].
    pub circuit: usize,
    /// The device.
    pub grid: Grid,
    /// The configuration the row's artifact is compiled under.
    pub config: CompilerConfig,
}

/// A generated circuit and the first row that uses it.
#[derive(Debug, Clone)]
pub struct Generated {
    /// Benchmark family.
    pub bench: Benchmark,
    /// Program-size budget.
    pub size: u32,
    /// The circuit.
    pub circuit: Arc<Circuit>,
    /// Global row id of the first row using it.
    pub first_row: u64,
}

/// Everything a pass runs, built from the workload seed.
#[derive(Debug)]
pub struct Input {
    /// The workload.
    pub workload: Workload,
    /// Circuit-generation seed (and base of the campaign seeds).
    pub seed: u64,
    /// Engine specs, run in order through one engine per pass.
    pub specs: Vec<ExperimentSpec>,
    /// One compile point per row; the global row id is the index.
    pub points: Vec<Point>,
    /// Distinct generated circuits, in first-use order.
    pub circuits: Vec<Generated>,
    /// Shots each pass attempts (0 for the sweep).
    pub shots: u64,
}

/// Generates the workload's circuits and builds its engine specs.
pub fn build_input(workload: Workload, seed: u64, scale: &Scale) -> Input {
    let grid = paper::paper_grid();
    let mut specs = Vec::new();
    match workload {
        Workload::PaperSweep => {
            let mids = paper::paper_mids();
            // `ExperimentSpec::sweep` fixes the circuit seed to 0, so the
            // seeded points go through `push` in the same nesting order.
            let sweep =
                |spec: &mut ExperimentSpec, mids: &[f64], cfg: fn(f64) -> CompilerConfig| {
                    for b in Benchmark::ALL {
                        for &size in &scale.sizes {
                            for &mid in mids {
                                spec.push(b, size, seed, cfg(mid), Task::Compile);
                            }
                        }
                    }
                };
            let mut fig03 = ExperimentSpec::new("fig03", grid.clone());
            sweep(&mut fig03, &mids, paper::two_qubit_cfg);
            let mut fig04 = ExperimentSpec::new("fig04", grid.clone());
            sweep(&mut fig04, &mids, paper::two_qubit_cfg);
            // Zones at MID 1 are trivial, so Fig. 5 starts at MID 2.
            let mut fig05 = ExperimentSpec::new("fig05", grid.clone());
            sweep(&mut fig05, &mids[1..], paper::two_qubit_cfg);
            sweep(&mut fig05, &mids[1..], paper::two_qubit_cfg_no_zones);
            specs.extend([fig03, fig04, fig05]);
        }
        Workload::LossCampaign => {
            let shots = scale.shots;
            let mut config = CampaignConfig::new(CAMPAIGN_MID, STRATEGY)
                .with_target(ShotTarget::Attempts(shots))
                .with_two_qubit_error(TWO_QUBIT_ERROR)
                .with_seed(na_loss::derive_seed(seed, 1))
                .with_streaming();
            config.max_attempts = shots;
            let mut spec = ExperimentSpec::new(workload.name(), grid.clone());
            spec.push(
                Benchmark::Cnu,
                CAMPAIGN_SIZE,
                seed,
                CompilerConfig::new(CAMPAIGN_MID),
                Task::ShardedCampaign {
                    config,
                    loss: LossSpec::new(na_loss::derive_seed(seed, 2)),
                    shards: SHARDS,
                },
            );
            specs.push(spec);
        }
    }

    let mut circuits: Vec<Generated> = Vec::new();
    let mut by_source: HashMap<(Benchmark, u32), usize> = HashMap::new();
    let mut points = Vec::new();
    for (s, spec) in specs.iter().enumerate() {
        for job in spec.jobs() {
            let na_engine::CircuitSource::Bench(bench) = job.source else {
                unreachable!("the benchmark only builds benchmark-family jobs");
            };
            let circuit = *by_source.entry((bench, job.size)).or_insert_with(|| {
                circuits.push(Generated {
                    bench,
                    size: job.size,
                    circuit: Arc::new(bench.generate(job.size, job.circuit_seed)),
                    first_row: points.len() as u64,
                });
                circuits.len() - 1
            });
            points.push(Point {
                spec: s,
                circuit,
                grid: job.grid.clone(),
                config: job
                    .task
                    .compile_config(&job.config)
                    .expect("every benchmark task reads the compile cache"),
            });
        }
    }
    Input {
        workload,
        seed,
        specs,
        points,
        circuits,
        shots: match workload {
            Workload::PaperSweep => 0,
            Workload::LossCampaign => scale.shots,
        },
    }
}

/// One pass: the engine that ran it and its rows, spec by spec.
#[derive(Debug)]
pub struct Pass {
    /// Wall time of the pass, engine construction included.
    pub wall: Duration,
    /// The pass's engine (its cache holds every compiled schedule).
    pub engine: Engine,
    /// Rows of each spec.
    pub records: Vec<Vec<RunRecord>>,
}

/// Runs every spec of `input` through one fresh engine.
pub fn run_pass(input: &Input, workers: usize) -> Pass {
    let start = Instant::now();
    let engine = Engine::with_workers(workers);
    let records = input.specs.iter().map(|spec| engine.run(spec)).collect();
    Pass {
        wall: start.elapsed(),
        engine,
        records,
    }
}

/// The outcome of a pass's output checks.
#[derive(Debug, Clone, Default)]
pub struct Checked {
    /// The workload's output digest.
    pub digest: u64,
    /// Operations attempted: rows (sweep) or shots (campaigns).
    pub ops: u64,
    /// Failed operations: failed rows, or every shot of a failed row.
    pub failed_ops: u64,
    /// One line per failed check (failed rows included).
    pub failures: Vec<String>,
    /// Compile-cache counters, read before the checks touch the cache.
    pub cache: CacheStats,
}

/// Folds a campaign result into `h`: the shot counters, the ledger
/// counts and seconds except the measured `recompile_time`, and the
/// streak summary.
pub fn fold_campaign(mut h: u64, r: &CampaignResult) -> u64 {
    let l = &r.ledger;
    for word in [
        r.shots_attempted,
        r.shots_successful,
        r.discarded_by_loss,
        r.failed_by_noise,
        l.reloads,
        l.fluorescences,
        l.remaps,
        l.fixups,
        l.recompiles,
        l.reload_time.to_bits(),
        l.fluorescence_time.to_bits(),
        l.remap_time.to_bits(),
        l.fixup_time.to_bits(),
        l.circuit_time.to_bits(),
        r.streaks.completed.count,
        r.streaks.completed.mean().to_bits(),
        r.streaks.open.unwrap_or(u64::MAX),
    ] {
        h = fnv1a_extend(h, word);
    }
    for &bucket in r.streaks.histogram.buckets() {
        h = fnv1a_extend(h, bucket);
    }
    h
}

const DIGEST_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// Checks a campaign row: conservation, the shot target, and the
/// fluorescence count. Returns the failures found.
pub fn campaign_failures(r: &CampaignResult, shots: u64) -> Vec<String> {
    let mut failures = Vec::new();
    let accounted = r.shots_successful + r.discarded_by_loss + r.failed_by_noise;
    if r.shots_attempted != accounted {
        failures.push(format!(
            "conservation: attempted {} != successful + discarded + failed {}",
            r.shots_attempted, accounted
        ));
    }
    if r.ledger.fluorescences != r.shots_attempted {
        failures.push(format!(
            "fluorescences {} != attempted {}",
            r.ledger.fluorescences, r.shots_attempted
        ));
    }
    if r.shots_attempted != shots {
        failures.push(format!("attempted {} != target {shots}", r.shots_attempted));
    }
    failures
}

/// Untimed output checks of one pass. Every compiled schedule is read
/// back from the pass's compile cache and verified once; the digest
/// folds every row's `schedule_digest` in spec order, plus the campaign
/// counters for campaign rows.
pub fn check_pass(input: &Input, pass: &Pass) -> Checked {
    let cache = pass.engine.cache_stats();
    let mut checked = Checked {
        digest: DIGEST_SEED,
        cache,
        ..Checked::default()
    };
    let rows = pass.records.iter().flatten();
    let row_count = pass.records.iter().map(Vec::len).sum::<usize>();
    if row_count != input.points.len() {
        checked.failed_ops += 1;
        checked
            .failures
            .push(format!("{row_count} rows for {} jobs", input.points.len()));
    }
    let mut seen: HashSet<CacheKey> = HashSet::new();
    for (row, (point, record)) in input.points.iter().zip(rows).enumerate() {
        let row_ops = input.shots.max(1);
        checked.ops += row_ops;
        let mut failures = Vec::new();
        if let Outcome::Failed { error, .. } = &record.outcome {
            checked.failed_ops += row_ops;
            checked
                .failures
                .push(format!("row {row}: failed row: {error}"));
            continue;
        }
        let circuit = &input.circuits[point.circuit].circuit;
        match pass
            .engine
            .cache()
            .get_or_compile(circuit, &point.grid, &point.config)
        {
            Ok(compiled) => {
                let first = seen.insert(CacheKey::for_point(circuit, &point.grid, &point.config));
                if first {
                    if let Err(e) = na_core::verify(&compiled, &point.grid) {
                        failures.push(format!("schedule verification failed: {e}"));
                    }
                }
                checked.digest = fnv1a_extend(checked.digest, na_core::schedule_digest(&compiled));
                match &record.outcome {
                    Outcome::Compiled { metrics, .. } => {
                        if *metrics != compiled.metrics() {
                            failures.push("row metrics differ from the cached schedule".into());
                        }
                        // Spec-order flag: a hit iff an earlier row of
                        // the pass used the same compile point.
                        if record.cache_hit != Some(!first) {
                            failures.push(format!(
                                "cache_hit {:?}, expected {}",
                                record.cache_hit, !first
                            ));
                        }
                    }
                    Outcome::Campaign(result) => {
                        failures.extend(campaign_failures(result, input.shots));
                        checked.digest = fold_campaign(checked.digest, result);
                    }
                    other => failures.push(format!("unexpected outcome {other:?}")),
                }
            }
            Err(e) => failures.push(format!("cached compile failed: {e}")),
        }
        checked.failed_ops += failures.len() as u64;
        checked
            .failures
            .extend(failures.into_iter().map(|msg| format!("row {row}: {msg}")));
    }
    checked
}

/// A named metric value with its unit.
pub type Metric = (&'static str, f64, &'static str);

/// One replay of a workload's pass through each layer's public
/// functions, on one thread.
#[derive(Debug)]
pub struct Replay {
    /// The spans (empty for an untraced replay).
    pub tracer: Tracer,
    /// Wall seconds of the replay (the root span when traced).
    pub wall: f64,
    /// Operations the replay's engine run attempted.
    pub ops: u64,
    /// Failed operations: failed rows and failed checks.
    pub failed_ops: u64,
    /// One line per failed check.
    pub failures: Vec<String>,
    /// Per-layer metrics (traced replays only).
    pub metrics: Vec<Metric>,
}

/// One distinct compile point of a workload, in first-use order.
struct Distinct {
    row: usize,
    key: CacheKey,
    /// The first point of its lowering/placement front-end, whose
    /// artifacts the engine computes rather than reuses.
    front_first: bool,
}

fn distinct_points(input: &Input) -> Vec<Distinct> {
    let mut seen = HashSet::new();
    let mut fronts = HashSet::new();
    let mut out = Vec::new();
    for (row, p) in input.points.iter().enumerate() {
        let circuit = &input.circuits[p.circuit].circuit;
        let key = CacheKey::for_point(circuit, &p.grid, &p.config);
        if seen.insert(key) {
            out.push(Distinct {
                row,
                key,
                front_first: fronts.insert(ArtifactKey::of(circuit, &p.grid, &p.config)),
            });
        }
    }
    out
}

/// Generations of each circuit inside one single-worker engine pass:
/// once per spec that uses it (the engine's spec-order cache flags) and
/// once per work item (a whole job, or each shard of a campaign row).
fn engine_generations(input: &Input) -> Vec<u64> {
    let mut counts = vec![0u64; input.circuits.len()];
    let per_row = if input.shots > 0 {
        u64::from(SHARDS)
    } else {
        1
    };
    let mut in_spec: HashSet<(usize, usize)> = HashSet::new();
    for p in &input.points {
        counts[p.circuit] += per_row;
        if in_spec.insert((p.spec, p.circuit)) {
            counts[p.circuit] += 1;
        }
    }
    counts
}

/// The highest nearest-rank percentile with at least ten samples above
/// it, as `(percentile, value)`; the maximum when there are too few
/// samples for any.
pub fn tail(samples: &[f64]) -> (f64, f64) {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    for q in [99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0] {
        let idx = ((q / 100.0 * n as f64).ceil() as usize).clamp(1, n.max(1)) - 1;
        if n > 0 && n - 1 - idx >= 10 {
            return (q, sorted[idx]);
        }
    }
    (100.0, sorted.last().copied().unwrap_or(0.0))
}

/// The sum of `samples`, `0.0` when empty (`Iterator::sum` gives
/// `-0.0` for an empty `f64` sequence).
pub fn sum(samples: &[f64]) -> f64 {
    samples.iter().fold(0.0, |acc, x| acc + x)
}

/// The median of `samples` (mean of the middle two for even counts).
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Replays one pass of `input` on one thread: generates the circuits,
/// compiles every distinct point through `lower_for`,
/// `circuit_weights`, `initial_placement_with`, `compile_with` and
/// `verify`, runs the campaign shards through `InteractionSummary::of`,
/// `run_campaign_shard` and `CampaignResult::merge`, and finally runs
/// the specs through a fresh single-worker [`Engine`]. With `traced`
/// each call is a span; the untraced replay does the identical work
/// and measures only its wall time.
///
/// Outside the timed region the direct-call results are checked
/// against the engine's rows (same digest), and the engine's rows go
/// through [`check_pass`].
pub fn replay(input: &Input, traced: bool) -> Replay {
    let distinct = distinct_points(input);
    let mut t = Tracer::new(traced);
    let mut failures = Vec::new();
    let mut scratch = PlacementScratch::new();
    let mut compiled: HashMap<CacheKey, Arc<CompiledCircuit>> = HashMap::new();
    let mut lowered_gates = 0u64;
    let mut shards: Vec<CampaignResult> = Vec::new();
    let mut merged: Option<CampaignResult> = None;

    let start = Instant::now();
    t.begin(input.workload.name(), Tag::default());
    let circuits: Vec<Arc<Circuit>> = input
        .circuits
        .iter()
        .map(|g| {
            t.time("benchmarks.generate", Tag::row(g.first_row), || {
                Arc::new(g.bench.generate(g.size, input.seed))
            })
        })
        .collect();
    for d in &distinct {
        let p = &input.points[d.row];
        let circuit = &circuits[p.circuit];
        let tag = Tag::row(d.row as u64);
        let lowered = t.time("core.lower", tag, || na_core::lower_for(circuit, &p.config));
        let weights = t.time("core.weights", tag, || {
            na_core::circuit_weights(&lowered, p.config.lookahead_depth)
        });
        let placed = t.time("core.place", tag, || {
            na_core::initial_placement_with(&lowered, &p.grid, &weights, &mut scratch)
        });
        let result = t.time("core.compile", tag, || {
            na_core::compile_with(circuit, &p.grid, &p.config, &mut scratch)
        });
        lowered_gates += lowered.len() as u64;
        if let Err(e) = placed {
            failures.push(format!("row {}: placement failed: {e}", d.row));
        }
        match result {
            Ok(c) => {
                if let Err(e) = t.time("core.verify", tag, || na_core::verify(&c, &p.grid)) {
                    failures.push(format!("row {}: verification failed: {e}", d.row));
                }
                compiled.insert(d.key, Arc::new(c));
            }
            Err(e) => failures.push(format!("row {}: compile failed: {e}", d.row)),
        }
    }
    if input.shots > 0 {
        let job = &input.specs[0].jobs()[0];
        let Task::ShardedCampaign {
            config,
            loss,
            shards: count,
        } = &job.task
        else {
            unreachable!("campaign workloads run one sharded campaign row");
        };
        let program = &circuits[input.points[0].circuit];
        let tag = Tag::row(0);
        if let Some(schedule) = compiled.get(&distinct[0].key).cloned() {
            let summary = t.time("loss.summary", tag, || {
                Arc::new(InteractionSummary::of(&schedule))
            });
            let base_loss = loss.build();
            let ranges = na_loss::shard_ranges(config, *count).expect("a valid fixed shard plan");
            for (k, range) in (0u32..).zip(ranges) {
                let shard = t.time("loss.shard", Tag::shard(0, k), || {
                    na_loss::run_campaign_shard(
                        program,
                        &job.grid,
                        Arc::clone(&schedule),
                        Arc::clone(&summary),
                        &base_loss,
                        config,
                        k,
                        range,
                    )
                });
                match shard {
                    Ok(s) => shards.push(s),
                    Err(e) => failures.push(format!("shard {k}: {e}")),
                }
            }
            merged = t.time("loss.merge", tag, || {
                let mut parts = shards.iter();
                let mut acc = parts.next().cloned()?;
                parts.for_each(|s| acc.merge(s));
                Some(acc)
            });
        }
    }
    let engine = Engine::with_workers(1);
    let records: Vec<Vec<RunRecord>> = input
        .specs
        .iter()
        .map(|spec| t.time("engine.run", Tag::default(), || engine.run(spec)))
        .collect();
    t.end();
    let wall = if traced {
        t.spans()[0].secs()
    } else {
        start.elapsed().as_secs_f64()
    };

    // Untimed checks: the engine's rows, and the direct calls against them.
    let artifact_hits = engine.cache().artifacts().hits();
    let lowered_hits = engine.cache().artifacts().lowered_hits();
    let pass = Pass {
        wall: Duration::from_secs_f64(wall),
        engine,
        records,
    };
    let checked = check_pass(input, &pass);
    failures.extend(checked.failures.iter().cloned());
    let mut direct = DIGEST_SEED;
    for p in &input.points {
        let key = CacheKey::for_point(&circuits[p.circuit], &p.grid, &p.config);
        if let Some(c) = compiled.get(&key) {
            direct = fnv1a_extend(direct, na_core::schedule_digest(c));
        }
    }
    if let Some(m) = &merged {
        failures.extend(campaign_failures(m, input.shots));
        direct = fold_campaign(direct, m);
    }
    if direct != checked.digest {
        failures.push(format!(
            "direct-call digest {direct:016x} != engine digest {:016x}",
            checked.digest
        ));
    }
    let failed_ops = checked.failed_ops + (failures.len() - checked.failures.len()) as u64;

    let mut metrics = Vec::new();
    if traced {
        let compile_ms: Vec<f64> = t
            .durations("core.compile")
            .iter()
            .map(|s| s * 1e3)
            .collect();
        let lower = t.durations("core.lower");
        let weights = t.durations("core.weights");
        let place = t.durations("core.place");
        let compile = t.durations("core.compile");
        let front = |i: usize| lower[i] + weights[i] + place[i];
        let route = sum(&(0..compile.len())
            .map(|i| compile[i] - front(i))
            .collect::<Vec<_>>());
        let gen = t.durations("benchmarks.generate");
        let engine_gen: f64 = engine_generations(input)
            .iter()
            .zip(&gen)
            .map(|(&n, g)| n as f64 * g)
            .sum();
        let engine_core: f64 = route
            + (0..compile.len())
                .filter(|&i| distinct[i].front_first)
                .map(front)
                .sum::<f64>();
        let shard_s = t.durations("loss.shard");
        let summary_s = t.total("loss.summary");
        let merge_s = t.total("loss.merge");
        let shard_total = sum(&shard_s);
        let engine_loss = summary_s + shard_total + merge_s;
        let engine_run = t.total("engine.run");
        let shard_max = shard_s.iter().copied().fold(0.0, f64::max);
        let shard_mean = if shard_s.is_empty() {
            0.0
        } else {
            shard_total / shard_s.len() as f64
        };
        let schedules = distinct.iter().filter_map(|d| compiled.get(&d.key));
        let (swaps, timesteps) = schedules.fold((0u64, 0u64), |(s, ts), c| {
            (
                s + c.metrics().swaps as u64,
                ts + u64::from(c.num_timesteps()),
            )
        });
        let m = merged.clone().unwrap_or_default();
        let cache = checked.cache;
        let selfs = t.self_times();
        let unexplained = selfs.get(input.workload.name()).copied().unwrap_or(0.0);
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        metrics = vec![
            ("benchmarks.generate_s", t.total("benchmarks.generate"), "s"),
            ("core.lower_s", sum(&lower), "s"),
            ("core.weights_s", sum(&weights), "s"),
            ("core.place_s", sum(&place), "s"),
            ("core.route_schedule_s", route, "s"),
            ("core.compile_s", sum(&compile), "s"),
            ("core.compile_ms_p50", median(&compile_ms), "ms"),
            ("core.compile_ms_tail", tail(&compile_ms).1, "ms"),
            ("core.verify_s", t.total("core.verify"), "s"),
            ("core.lowered_gates", lowered_gates as f64, "count"),
            ("core.swaps", swaps as f64, "count"),
            ("core.timesteps", timesteps as f64, "count"),
            ("engine.run_s", engine_run, "s"),
            (
                "engine.remainder_s",
                engine_run - engine_gen - engine_core - engine_loss,
                "s",
            ),
            ("engine.cache_hits", cache.hits as f64, "count"),
            ("engine.cache_misses", cache.misses as f64, "count"),
            (
                "engine.cache_hit_ratio",
                ratio(cache.hits as f64, cache.lookups() as f64),
                "ratio",
            ),
            ("engine.artifact_hits", artifact_hits as f64, "count"),
            ("engine.artifact_lowered_hits", lowered_hits as f64, "count"),
            ("loss.summary_s", summary_s, "s"),
            ("loss.shard_s", shard_total, "s"),
            ("loss.shard_max_s", shard_max, "s"),
            (
                "loss.shard_imbalance",
                ratio(shard_max, shard_mean),
                "ratio",
            ),
            ("loss.merge_s", merge_s, "s"),
            ("loss.shots_attempted", m.shots_attempted as f64, "count"),
            (
                "loss.success_ratio",
                ratio(m.shots_successful as f64, m.shots_attempted as f64),
                "ratio",
            ),
            (
                "loss.discarded_by_loss",
                m.discarded_by_loss as f64,
                "count",
            ),
            ("loss.reloads", m.ledger.reloads as f64, "count"),
            ("loss.remaps", m.ledger.remaps as f64, "count"),
            ("loss.fixups", m.ledger.fixups as f64, "count"),
            ("unexplained_s", unexplained, "s"),
            ("trace.wall_s", wall, "s"),
            ("trace.layer_sum_s", wall - unexplained, "s"),
        ];
    }
    Replay {
        tracer: t,
        wall,
        ops: checked.ops,
        failed_ops,
        failures,
        metrics,
    }
}
