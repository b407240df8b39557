//! The explicit compilation pass pipeline.
//!
//! [`compile`](crate::compile) used to be one monolithic function
//! threading lower → place → route/schedule by hand; it is now a thin
//! wrapper over [`Pipeline::standard`], an ordered list of named
//! [`Pass`]es running over a shared [`PassContext`]:
//!
//! ```text
//! lower → validate_arity → place → route_schedule → verify → finalize
//! ```
//!
//! The context carries the source circuit, grid, config, and placement
//! scratch in, and accumulates the intermediate artifacts (lowered
//! circuit, initial placement, schedule) each pass produces for the
//! next. One cooperative [`na_faults::check_deadline`] runs per pass
//! transition, replacing the ad-hoc checkpoints the monolith sprinkled
//! between stages — an expired budget stops at the next pass boundary
//! with the same typed [`CompileError::DeadlineExceeded`].
//!
//! # Timing
//!
//! The runner is the only place a pass is timed: it opens one
//! [`na_telemetry::Span`] per pass, named by the pass's
//! [`Stage`], and that one measurement feeds the stage histogram
//! (`--metrics`), the pass's trace span (`--trace`) and the
//! [`PassTiming`] row of a [`PassReport`]. Pass bodies carry no timers
//! of their own; a skipped `verify` pass records its near-zero span
//! like any other pass. Passes record artifact statistics through
//! [`PassContext::stat`]; they surface in the report that
//! [`Pipeline::run_reported`] returns and that `natoms bench` and
//! `natoms compile --passes` print.
//!
//! # Artifact reuse
//!
//! The MID enters compilation only at routing/scheduling: lowering
//! reads the gate-set fields (`native_multiqubit`, `max_native_arity`)
//! and placement reads `lookahead_depth`, so the lowered circuit and
//! the initial placement are *MID-independent*. [`ArtifactStore`] is
//! the cache seam that exploits this: keyed by circuit fingerprint ×
//! grid fingerprint × front-end config fingerprint, it lets a sweep
//! over MID variants of one circuit reuse the placement instead of
//! recomputing it, bit-for-bit identical to a fresh compile (pinned by
//! `tests/pipeline_differential.rs`).

use crate::compiler::{lower_for, verify_parts, CompiledCircuit};
use crate::placement::{check_capacity, circuit_weights, initial_placement_with, PlacementScratch};
use crate::scheduler::{run, ScheduleResult};
use crate::{CompileError, CompilerConfig, QubitMap};
use na_arch::{Grid, InteractionGraph, Site};
use na_circuit::{Circuit, Gate, Qubit};
use na_telemetry::{Counter, Parent, Span, Stage};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// One named unit of compilation work over a shared [`PassContext`].
pub trait Pass {
    /// The stage this pass is timed under; its name is the pass name
    /// in [`PassReport`] rows, metrics snapshots and trace spans.
    fn stage(&self) -> Stage;

    /// Runs the pass: read earlier artifacts from `ctx`, leave this
    /// pass's own.
    ///
    /// # Errors
    ///
    /// Any [`CompileError`] aborts the pipeline immediately.
    fn run(&self, ctx: &mut PassContext<'_>) -> Result<(), CompileError>;
}

/// Shared state threaded through a [`Pipeline`]: the compilation
/// inputs plus the artifact slots each pass fills for the next.
pub struct PassContext<'a> {
    source: &'a Circuit,
    grid: &'a Grid,
    config: &'a CompilerConfig,
    scratch: &'a mut PlacementScratch,
    /// Artifact reuse seam: when armed via [`PassContext::reuse_from`],
    /// `lower`/`place` serve from (and populate) the store.
    reuse: Option<&'a ArtifactStore>,
    reuse_key: Option<ArtifactKey>,
    reused: Option<Arc<PassArtifacts>>,
    /// Armed via [`PassContext::reuse_lowered_from`]: only the
    /// grid-independent lowering side of the store is read/written;
    /// `place` neither serves nor deposits full artifacts.
    lowered_only: bool,
    lowered: Option<Circuit>,
    placement: Option<QubitMap>,
    initial_table: Option<HashMap<Qubit, Site>>,
    schedule: Option<ScheduleResult>,
    compiled: Option<CompiledCircuit>,
    /// Per-pass stat sink, `Some` only while a reporting runner has
    /// the current pass on the clock.
    stats: Option<BTreeMap<String, u64>>,
}

impl<'a> PassContext<'a> {
    /// A fresh context over the compilation inputs.
    pub fn new(
        source: &'a Circuit,
        grid: &'a Grid,
        config: &'a CompilerConfig,
        scratch: &'a mut PlacementScratch,
    ) -> Self {
        PassContext {
            source,
            grid,
            config,
            scratch,
            reuse: None,
            reuse_key: None,
            reused: None,
            lowered_only: false,
            lowered: None,
            placement: None,
            initial_table: None,
            schedule: None,
            compiled: None,
            stats: None,
        }
    }

    /// Arms the artifact-reuse seam: if `store` already holds the
    /// MID-independent front-end artifacts for this (circuit, grid,
    /// front-end config), `lower` and `place` serve them instead of
    /// recomputing; otherwise `place` deposits them after computing.
    pub fn reuse_from(&mut self, store: &'a ArtifactStore) {
        let key = ArtifactKey::of(self.source, self.grid, self.config);
        self.reused = store.get(&key);
        self.reuse = Some(store);
        self.reuse_key = Some(key);
    }

    /// Arms only the *lowering* side of the reuse seam: `lower` serves
    /// the grid-independent lowered circuit from the store (and
    /// deposits fresh lowerings), while `place` computes — and does
    /// **not** deposit — a fresh placement. This is the seam for
    /// recompiling the same program against a mutating grid (the
    /// `FullRecompile` loss strategy, where every loss event changes
    /// the grid fingerprint): lowering never reads the grid, so it is
    /// reusable across every hole pattern, but caching one full
    /// artifact per hole pattern would grow without bound over a
    /// campaign.
    pub fn reuse_lowered_from(&mut self, store: &'a ArtifactStore) {
        self.reuse = Some(store);
        self.reuse_key = Some(ArtifactKey::of(self.source, self.grid, self.config));
        self.lowered_only = true;
    }

    /// The source circuit being compiled.
    pub fn source(&self) -> &Circuit {
        self.source
    }

    /// The target device grid.
    pub fn grid(&self) -> &Grid {
        self.grid
    }

    /// The compiler configuration.
    pub fn config(&self) -> &CompilerConfig {
        self.config
    }

    /// The lowered circuit, once the `lower` pass has run.
    pub fn lowered(&self) -> Option<&Circuit> {
        self.lowered.as_ref()
    }

    /// Records a per-pass statistic (no-op unless a reporting runner
    /// is collecting — see [`Pipeline::run_reported`]).
    pub fn stat(&mut self, key: &str, value: u64) {
        if let Some(stats) = self.stats.as_mut() {
            stats.insert(key.to_string(), value);
        }
    }
}

/// Per-pass wall time and artifact statistics for one compilation,
/// produced by [`Pipeline::run_reported`].
///
/// Wall-clock measurements: exempt from the byte-reproducibility
/// contract (like the engine's per-row stage deltas), while the
/// compiled artifact itself stays digest-pinned.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct PassReport {
    /// One row per executed pass, in pipeline order.
    pub passes: Vec<PassTiming>,
    /// Sum of the per-pass times.
    pub total_ns: u64,
}

/// One [`PassReport`] row.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct PassTiming {
    /// The pass name (the name of [`Pass::stage`]).
    pub pass: String,
    /// Wall time spent in the pass: the runner span's
    /// [`Span::finish`], the same value its histogram sample and trace
    /// span carry.
    pub ns: u64,
    /// Artifact statistics the pass recorded (gate counts, op counts,
    /// reuse flags — see each pass's docs).
    pub stats: BTreeMap<String, u64>,
}

impl PassReport {
    /// Renders the per-pass timing table `natoms bench` and
    /// `natoms compile --passes` print.
    pub fn render(&self) -> String {
        let mut out = String::from("pass            time        stats\n");
        for row in &self.passes {
            let stats = row
                .stats
                .iter()
                .map(|(k, v)| format!("{k}={v}"))
                .collect::<Vec<_>>()
                .join(" ");
            out.push_str(&format!(
                "{:<15} {:>10}  {}\n",
                row.pass,
                na_telemetry::fmt_ns(row.ns),
                stats
            ));
        }
        out.push_str(&format!(
            "{:<15} {:>10}\n",
            "total",
            na_telemetry::fmt_ns(self.total_ns)
        ));
        out
    }
}

/// Key of one [`ArtifactStore`] entry: circuit fingerprint × grid
/// fingerprint × the front-end config fields that influence lowering
/// and placement (`native_multiqubit`, `max_native_arity`,
/// `lookahead_depth`). The MID is deliberately absent — that is the
/// whole point of the seam.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ArtifactKey {
    circuit: u64,
    grid: u64,
    front: u64,
}

impl ArtifactKey {
    /// The key for compiling `circuit` on `grid` under `config`.
    pub fn of(circuit: &Circuit, grid: &Grid, config: &CompilerConfig) -> Self {
        use na_circuit::fingerprint::fnv1a_extend;
        let mut front = fnv1a_extend(0xcbf2_9ce4_8422_2325, u64::from(config.native_multiqubit));
        front = fnv1a_extend(front, config.max_native_arity as u64);
        front = fnv1a_extend(front, config.lookahead_depth as u64);
        ArtifactKey {
            circuit: circuit.fingerprint(),
            grid: grid.fingerprint(),
            front,
        }
    }
}

/// The MID-independent front-end artifacts of one compilation.
#[derive(Debug)]
pub struct PassArtifacts {
    /// The lowered circuit (`lower` output).
    pub lowered: Arc<Circuit>,
    /// The lookahead-weighted initial placement (`place` output).
    pub placement: QubitMap,
}

/// Concurrent cache of [`PassArtifacts`], shared across compilations
/// of MID variants of the same circuit (the engine's compile cache
/// holds one per process).
///
/// Only successful placements are stored; a first-insert-wins policy
/// keeps concurrent writers deterministic.
#[derive(Debug, Default)]
pub struct ArtifactStore {
    map: Mutex<HashMap<ArtifactKey, Arc<PassArtifacts>>>,
    hits: AtomicU64,
    /// The grid-independent lowering cache, keyed by (circuit, front)
    /// only: lowering never reads the grid, so one entry serves every
    /// hole pattern of the same program (the `FullRecompile` seam).
    lowered: Mutex<HashMap<(u64, u64), Arc<Circuit>>>,
    lowered_hits: AtomicU64,
}

impl ArtifactStore {
    /// An empty store.
    pub fn new() -> Self {
        ArtifactStore::default()
    }

    /// Looks up `key`, counting a hit when present.
    pub fn get(&self, key: &ArtifactKey) -> Option<Arc<PassArtifacts>> {
        let got = lock_recover(&self.map).get(key).cloned();
        if got.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
            na_telemetry::add(Counter::ArtifactHits, 1);
        }
        got
    }

    /// Deposits `artifacts` under `key` (first insert wins).
    pub fn insert(&self, key: ArtifactKey, artifacts: PassArtifacts) {
        lock_recover(&self.map)
            .entry(key)
            .or_insert_with(|| Arc::new(artifacts));
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        lock_recover(&self.map).len()
    }

    /// `true` when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of compilations that reused a cached entry.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Looks up the cached lowering for `key`'s (circuit, front) pair
    /// — the grid component is deliberately ignored — counting a hit
    /// when present.
    pub fn get_lowered(&self, key: &ArtifactKey) -> Option<Arc<Circuit>> {
        let got = lock_recover(&self.lowered)
            .get(&(key.circuit, key.front))
            .cloned();
        if got.is_some() {
            self.lowered_hits.fetch_add(1, Ordering::Relaxed);
            na_telemetry::add(Counter::ArtifactLoweredHits, 1);
        }
        got
    }

    /// Deposits a lowered circuit under `key`'s (circuit, front) pair
    /// (first insert wins).
    pub fn insert_lowered(&self, key: ArtifactKey, lowered: Arc<Circuit>) {
        lock_recover(&self.lowered)
            .entry((key.circuit, key.front))
            .or_insert(lowered);
    }

    /// Number of cached lowerings.
    pub fn lowered_len(&self) -> usize {
        lock_recover(&self.lowered).len()
    }

    /// Number of compilations that reused a cached lowering.
    pub fn lowered_hits(&self) -> u64 {
        self.lowered_hits.load(Ordering::Relaxed)
    }

    /// Drops every entry (both maps) and zeroes the hit counters.
    pub fn clear(&self) {
        lock_recover(&self.map).clear();
        self.hits.store(0, Ordering::Relaxed);
        lock_recover(&self.lowered).clear();
        self.lowered_hits.store(0, Ordering::Relaxed);
    }
}

/// Mutex poisoning recovery: artifacts are immutable once inserted, so
/// a panicking holder cannot leave them half-written.
fn lock_recover<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// `lower`: gate-set lowering via [`lower_for`] (or artifact reuse).
/// Stats: `gates`, `reused`.
struct Lower;

impl Pass for Lower {
    fn stage(&self) -> Stage {
        Stage::Lower
    }

    fn run(&self, ctx: &mut PassContext<'_>) -> Result<(), CompileError> {
        let lowered = match ctx.reused.clone() {
            Some(art) => {
                ctx.stat("reused", 1);
                (*art.lowered).clone()
            }
            // Full-artifact miss (or lowered-only mode): the
            // grid-independent lowering cache can still serve —
            // lowering is a pure function of (circuit, front-end
            // config), so the cached copy is bit-identical to a fresh
            // `lower_for`.
            None => match ctx
                .reuse
                .zip(ctx.reuse_key)
                .and_then(|(store, key)| store.get_lowered(&key))
            {
                Some(low) => {
                    ctx.stat("reused_lowered", 1);
                    (*low).clone()
                }
                None => {
                    let low = lower_for(ctx.source, ctx.config);
                    if let (Some(store), Some(key)) = (ctx.reuse, ctx.reuse_key) {
                        store.insert_lowered(key, Arc::new(low.clone()));
                    }
                    low
                }
            },
        };
        ctx.stat("gates", lowered.len() as u64);
        ctx.lowered = Some(lowered);
        Ok(())
    }
}

/// `validate_arity`: rejects native multiqubit gates no placement can
/// ever bring within the MID. An arity-k gate needs k atoms pairwise
/// within the MID; the tightest k-site cluster on a grid is a
/// ⌈√k⌉×⌈√k⌉ block whose diagonal is √2·(⌈√k⌉−1). Stats: `max_arity`.
struct ValidateArity;

impl Pass for ValidateArity {
    fn stage(&self) -> Stage {
        Stage::ValidateArity
    }

    fn run(&self, ctx: &mut PassContext<'_>) -> Result<(), CompileError> {
        let max_arity = ctx
            .lowered
            .as_ref()
            .expect("lower pass ran")
            .iter()
            .filter(|g| !g.is_measure())
            .map(Gate::arity)
            .max()
            .unwrap_or(1);
        ctx.stat("max_arity", max_arity as u64);
        if max_arity >= 3 {
            let side = (max_arity as f64).sqrt().ceil();
            let required_sq = 2.0 * (side - 1.0) * (side - 1.0);
            if ctx.config.mid * ctx.config.mid < required_sq - 1e-9 {
                return Err(CompileError::UnroutableGate { arity: max_arity });
            }
        }
        Ok(())
    }
}

/// `place`: lookahead-weighted initial placement (or artifact reuse);
/// on a fresh computation, deposits the front-end artifacts into the
/// armed [`ArtifactStore`]. Stats: `qubits`, `reused`.
struct Place;

impl Pass for Place {
    fn stage(&self) -> Stage {
        Stage::Place
    }

    fn run(&self, ctx: &mut PassContext<'_>) -> Result<(), CompileError> {
        let lowered = ctx.lowered.take().expect("lower pass ran");
        let map0 = match ctx.reused.clone() {
            Some(art) => {
                ctx.stat("reused", 1);
                art.placement.clone()
            }
            None => {
                if let Err(e) = check_capacity(&lowered, ctx.grid) {
                    ctx.lowered = Some(lowered);
                    return Err(e);
                }
                let weights = circuit_weights(&lowered, ctx.config.lookahead_depth);
                let map0 = initial_placement_with(&lowered, ctx.grid, &weights, ctx.scratch);
                let map0 = match map0 {
                    Ok(m) => m,
                    Err(e) => {
                        ctx.lowered = Some(lowered);
                        return Err(e);
                    }
                };
                // In lowered-only mode the grid is transient (a holey
                // mid-campaign snapshot): depositing one full artifact
                // per hole pattern would grow the store unboundedly.
                if !ctx.lowered_only {
                    if let (Some(store), Some(key)) = (ctx.reuse, ctx.reuse_key) {
                        store.insert(
                            key,
                            PassArtifacts {
                                lowered: Arc::new(lowered.clone()),
                                placement: map0.clone(),
                            },
                        );
                    }
                }
                map0
            }
        };
        ctx.stat("qubits", u64::from(lowered.num_qubits()));
        ctx.initial_table = Some(map0.to_table());
        ctx.placement = Some(map0);
        ctx.lowered = Some(lowered);
        Ok(())
    }
}

/// `route_schedule`: the restriction-zone frontier scheduler
/// ([`crate::scheduler`]), which reports its own routing vs scheduling
/// split under `Stage::Route`/`Stage::Schedule` and the routing
/// sub-stages under `Stage::Weights`/`Stage::SwapSelect`/
/// `Stage::ForcedHop`. Stats: `ops`, `swaps`, `timesteps`, and under a
/// reporting runner the sub-stage nanoseconds `weights`,
/// `swap_select` and `forced_hop` (the metric names).
struct RouteSchedule;

impl Pass for RouteSchedule {
    fn stage(&self) -> Stage {
        Stage::RouteSchedule
    }

    fn run(&self, ctx: &mut PassContext<'_>) -> Result<(), CompileError> {
        let lowered = ctx.lowered.take().expect("lower pass ran");
        let map0 = ctx.placement.take().expect("place pass ran");
        // The precomputed flat-index interaction graph every hot loop
        // (SWAP scoring, forced hops) runs over; memoized per
        // (grid, MID).
        let graph = InteractionGraph::cached(ctx.grid, ctx.config.mid);
        let timed = na_telemetry::is_enabled() || ctx.stats.is_some();
        let result = run(
            &lowered,
            ctx.grid,
            &graph,
            ctx.config,
            map0,
            &mut ctx.scratch.lookahead,
            timed,
        );
        ctx.lowered = Some(lowered);
        let result = result?;
        if let Some(split) = result.route_split {
            ctx.stat(Stage::Weights.name(), split.weights_ns);
            ctx.stat(Stage::SwapSelect.name(), split.swap_select_ns);
            ctx.stat(Stage::ForcedHop.name(), split.forced_hop_ns);
        }
        ctx.stat("ops", result.ops.len() as u64);
        ctx.stat(
            "swaps",
            result.ops.iter().filter(|o| o.is_swap()).count() as u64,
        );
        ctx.stat("timesteps", u64::from(result.num_timesteps));
        ctx.schedule = Some(result);
        Ok(())
    }
}

/// `verify`: optional in-pipeline schedule verification, enabled only
/// in [`Pipeline::self_checking`] (the pipeline a verified compile
/// cache runs, so each compile key is checked once). Stats:
/// `ops_checked` or `skipped`.
struct Verify {
    enabled: bool,
}

impl Pass for Verify {
    fn stage(&self) -> Stage {
        Stage::Verify
    }

    fn run(&self, ctx: &mut PassContext<'_>) -> Result<(), CompileError> {
        if !self.enabled {
            ctx.stat("skipped", 1);
            return Ok(());
        }
        let checked = {
            let lowered = ctx.lowered.as_ref().expect("lower pass ran");
            let schedule = ctx.schedule.as_ref().expect("route_schedule pass ran");
            let initial = ctx.initial_table.as_ref().expect("place pass ran");
            let final_table = schedule.final_map.to_table();
            verify_parts(
                lowered,
                ctx.config,
                &schedule.ops,
                initial,
                &final_table,
                ctx.grid,
            )
            .map_err(|e| CompileError::VerifyFailed {
                detail: e.to_string(),
            })?;
            schedule.ops.len() as u64
        };
        ctx.stat("ops_checked", checked);
        Ok(())
    }
}

/// `finalize`: bumps the compile counters and assembles the
/// [`CompiledCircuit`]. Stats: `used_sites`.
struct Finalize;

impl Pass for Finalize {
    fn stage(&self) -> Stage {
        Stage::Finalize
    }

    fn run(&self, ctx: &mut PassContext<'_>) -> Result<(), CompileError> {
        let lowered = ctx.lowered.take().expect("lower pass ran");
        let initial_table = ctx.initial_table.take().expect("place pass ran");
        let result = ctx.schedule.take().expect("route_schedule pass ran");
        na_telemetry::add(Counter::Compiles, 1);
        na_telemetry::add(Counter::OpsScheduled, result.ops.len() as u64);
        let compiled = CompiledCircuit::from_parts(lowered, result, initial_table, *ctx.config);
        ctx.stat("used_sites", compiled.used_sites().len() as u64);
        ctx.compiled = Some(compiled);
        Ok(())
    }
}

/// An ordered list of [`Pass`]es plus the runner that drives them over
/// one [`PassContext`].
pub struct Pipeline {
    passes: Vec<Box<dyn Pass>>,
}

impl Pipeline {
    /// The production pipeline behind [`compile`](crate::compile):
    /// `lower → validate_arity → place → route_schedule → verify
    /// (disabled) → finalize`.
    pub fn standard() -> Self {
        Pipeline {
            passes: vec![
                Box::new(Lower),
                Box::new(ValidateArity),
                Box::new(Place),
                Box::new(RouteSchedule),
                Box::new(Verify { enabled: false }),
                Box::new(Finalize),
            ],
        }
    }

    /// [`Pipeline::standard`] with the `verify` pass enabled: every
    /// compile replays its own schedule against the hardware
    /// constraints before finalizing. A self-checking compile cache
    /// and `compile_with_report` run it.
    pub fn self_checking() -> Self {
        Pipeline {
            passes: vec![
                Box::new(Lower),
                Box::new(ValidateArity),
                Box::new(Place),
                Box::new(RouteSchedule),
                Box::new(Verify { enabled: true }),
                Box::new(Finalize),
            ],
        }
    }

    /// The pass names in execution order.
    pub fn pass_names(&self) -> Vec<&'static str> {
        self.passes.iter().map(|p| p.stage().name()).collect()
    }

    /// Runs every pass in order over `ctx` and returns the compiled
    /// circuit the final pass produced.
    ///
    /// # Errors
    ///
    /// The first pass failure, or [`CompileError::DeadlineExceeded`]
    /// at a pass boundary.
    pub fn run(&self, ctx: &mut PassContext<'_>) -> Result<CompiledCircuit, CompileError> {
        self.run_inner(ctx, None)
    }

    /// [`Pipeline::run`], also collecting a [`PassReport`] with
    /// per-pass wall time and artifact stats.
    ///
    /// # Errors
    ///
    /// Exactly as [`Pipeline::run`].
    pub fn run_reported(
        &self,
        ctx: &mut PassContext<'_>,
    ) -> Result<(CompiledCircuit, PassReport), CompileError> {
        let mut report = PassReport::default();
        let compiled = self.run_inner(ctx, Some(&mut report))?;
        Ok((compiled, report))
    }

    fn run_inner(
        &self,
        ctx: &mut PassContext<'_>,
        mut report: Option<&mut PassReport>,
    ) -> Result<CompiledCircuit, CompileError> {
        for pass in &self.passes {
            // One cooperative deadline checkpoint per pass transition:
            // a job that ran out of budget stops at the boundary with a
            // typed error instead of burning its worker. One relaxed
            // load when no deadline is armed.
            na_faults::check_deadline()?;
            ctx.stats = report.is_some().then(BTreeMap::new);
            let span = Span::open(pass.stage(), report.is_some(), Parent::Enclosing, Vec::new);
            let outcome = pass.run(ctx);
            let ns = span.finish();
            if let Some(r) = report.as_deref_mut() {
                r.passes.push(PassTiming {
                    pass: pass.stage().name().to_string(),
                    ns,
                    stats: ctx.stats.take().unwrap_or_default(),
                });
                r.total_ns += ns;
            }
            outcome?;
        }
        Ok(ctx
            .compiled
            .take()
            .expect("the final pass must produce the compiled circuit"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use na_benchmarks::Benchmark;

    fn inputs() -> (Circuit, Grid, CompilerConfig) {
        (
            Benchmark::Bv.generate(12, 0),
            Grid::new(8, 8),
            CompilerConfig::new(2.0),
        )
    }

    #[test]
    fn standard_pipeline_names_match_the_issue_order() {
        assert_eq!(
            Pipeline::standard().pass_names(),
            vec![
                "lower",
                "validate_arity",
                "place",
                "route_schedule",
                "verify",
                "finalize"
            ]
        );
    }

    #[test]
    fn reported_run_times_every_pass_and_collects_stats() {
        let (c, grid, cfg) = inputs();
        let mut scratch = PlacementScratch::new();
        let mut ctx = PassContext::new(&c, &grid, &cfg, &mut scratch);
        let (compiled, report) = Pipeline::standard().run_reported(&mut ctx).unwrap();
        assert_eq!(report.passes.len(), 6);
        assert_eq!(report.total_ns, report.passes.iter().map(|p| p.ns).sum());
        let by_name = |n: &str| {
            report
                .passes
                .iter()
                .find(|p| p.pass == n)
                .unwrap_or_else(|| panic!("pass {n} reported"))
        };
        assert_eq!(
            by_name("route_schedule").stats["ops"],
            compiled.ops().len() as u64
        );
        assert_eq!(
            by_name("finalize").stats["used_sites"],
            compiled.used_sites().len() as u64
        );
        assert!(by_name("lower").stats["gates"] > 0);
        assert_eq!(by_name("verify").stats["skipped"], 1);
        // The routing sub-stages carry their metric names.
        let route = &by_name("route_schedule").stats;
        for stage in [Stage::Weights, Stage::SwapSelect, Stage::ForcedHop] {
            assert!(route.contains_key(stage.name()), "{} missing", stage.name());
        }
    }

    #[test]
    fn self_checking_pipeline_verifies_and_reports_it() {
        let (c, grid, cfg) = inputs();
        let mut scratch = PlacementScratch::new();
        let mut ctx = PassContext::new(&c, &grid, &cfg, &mut scratch);
        let (compiled, report) = Pipeline::self_checking().run_reported(&mut ctx).unwrap();
        let verify = report.passes.iter().find(|p| p.pass == "verify").unwrap();
        assert_eq!(verify.stats["ops_checked"], compiled.ops().len() as u64);
        crate::verify(&compiled, &grid).expect("self-checked schedule verifies externally too");
    }

    #[test]
    fn artifact_key_ignores_the_mid() {
        let (c, grid, _) = inputs();
        let a = ArtifactKey::of(&c, &grid, &CompilerConfig::new(2.0));
        let b = ArtifactKey::of(&c, &grid, &CompilerConfig::new(5.0));
        assert_eq!(a, b, "MID variants share front-end artifacts");
        let narity = ArtifactKey::of(&c, &grid, &CompilerConfig::new(2.0).with_lookahead_depth(3));
        assert_ne!(a, narity, "placement inputs are part of the key");
    }

    #[test]
    fn artifact_store_counts_hits_and_clears() {
        let (c, grid, cfg) = inputs();
        let store = ArtifactStore::new();
        let mut scratch = PlacementScratch::new();
        let mut ctx = PassContext::new(&c, &grid, &cfg, &mut scratch);
        ctx.reuse_from(&store);
        Pipeline::standard().run(&mut ctx).unwrap();
        assert_eq!(store.len(), 1);
        assert_eq!(store.hits(), 0);

        let mut ctx = PassContext::new(&c, &grid, &cfg, &mut scratch);
        ctx.reuse_from(&store);
        Pipeline::standard().run(&mut ctx).unwrap();
        assert_eq!(store.len(), 1);
        assert_eq!(store.hits(), 1);

        store.clear();
        assert!(store.is_empty());
        assert_eq!(store.hits(), 0);
    }

    #[test]
    fn lowered_only_reuse_serves_across_grids_without_storing_placements() {
        let (c, grid, cfg) = inputs();
        let store = ArtifactStore::new();
        let mut scratch = PlacementScratch::new();

        // First compile on the pristine grid, lowered-only: deposits
        // one lowering, zero full artifacts.
        let mut ctx = PassContext::new(&c, &grid, &cfg, &mut scratch);
        ctx.reuse_lowered_from(&store);
        let fresh = Pipeline::standard().run(&mut ctx).unwrap();
        assert_eq!(store.lowered_len(), 1);
        assert_eq!(store.lowered_hits(), 0);
        assert_eq!(store.len(), 0, "lowered-only mode stores no placements");

        // Recompile on a mutated grid (different grid fingerprint —
        // the FullRecompile situation): the lowering is served, the
        // full map stays empty, and the compile is bit-identical to an
        // unseamed one.
        let mut holey = grid.clone();
        holey.remove_atom(Site::new(0, 0));
        let mut ctx = PassContext::new(&c, &holey, &cfg, &mut scratch);
        ctx.reuse_lowered_from(&store);
        let reused = Pipeline::standard().run(&mut ctx).unwrap();
        assert_eq!(store.lowered_hits(), 1);
        assert_eq!(store.lowered_len(), 1);
        assert_eq!(store.len(), 0);
        let mut ctx = PassContext::new(&c, &holey, &cfg, &mut scratch);
        let direct = Pipeline::standard().run(&mut ctx).unwrap();
        assert_eq!(reused.ops(), direct.ops());
        assert_eq!(reused.circuit(), direct.circuit());
        assert_eq!(reused.used_sites(), direct.used_sites());

        // A pre-seeded lowering (how campaigns arm the seam from an
        // already compiled schedule) hits immediately.
        let seeded = ArtifactStore::new();
        seeded.insert_lowered(
            ArtifactKey::of(&c, &grid, &cfg),
            Arc::new(fresh.circuit().clone()),
        );
        let mut ctx = PassContext::new(&c, &holey, &cfg, &mut scratch);
        ctx.reuse_lowered_from(&seeded);
        Pipeline::standard().run(&mut ctx).unwrap();
        assert_eq!(seeded.lowered_hits(), 1);

        store.clear();
        assert_eq!(store.lowered_len(), 0);
        assert_eq!(store.lowered_hits(), 0);
    }

    #[test]
    fn full_reuse_also_populates_the_lowering_cache() {
        let (c, grid, cfg) = inputs();
        let store = ArtifactStore::new();
        let mut scratch = PlacementScratch::new();
        let mut ctx = PassContext::new(&c, &grid, &cfg, &mut scratch);
        ctx.reuse_from(&store);
        Pipeline::standard().run(&mut ctx).unwrap();
        assert_eq!(store.len(), 1);
        assert_eq!(store.lowered_len(), 1);
        // A full-artifact hit never needs the lowering map.
        let mut ctx = PassContext::new(&c, &grid, &cfg, &mut scratch);
        ctx.reuse_from(&store);
        Pipeline::standard().run(&mut ctx).unwrap();
        assert_eq!(store.hits(), 1);
        assert_eq!(store.lowered_hits(), 0);
    }

    #[test]
    fn pass_report_renders_a_table() {
        let (c, grid, cfg) = inputs();
        let mut scratch = PlacementScratch::new();
        let mut ctx = PassContext::new(&c, &grid, &cfg, &mut scratch);
        let (_, report) = Pipeline::standard().run_reported(&mut ctx).unwrap();
        let table = report.render();
        assert!(table.contains("route_schedule"));
        assert!(table.contains("total"));
    }

    #[test]
    fn report_round_trips_through_serde() {
        let (c, grid, cfg) = inputs();
        let mut scratch = PlacementScratch::new();
        let mut ctx = PassContext::new(&c, &grid, &cfg, &mut scratch);
        let (_, report) = Pipeline::standard().run_reported(&mut ctx).unwrap();
        let json = serde_json::to_string(&report).unwrap();
        let back: PassReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
    }
}
