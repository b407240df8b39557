//! `na-telemetry`: zero-dependency structured instrumentation.
//!
//! Stage timers, monotonic counters, high-watermark gauges, and
//! log-scale latency histograms for the natoms pipeline. The design
//! has one hard contract: **instrumentation is strictly
//! observational**. It draws no RNG, changes no float accumulation
//! order, and when disabled (the default) every event site costs a
//! single relaxed atomic load and branch — so all golden digests
//! (schedules, placements, campaigns) are byte-identical with metrics
//! on or off.
//!
//! # Model
//!
//! - Events are recorded into a **thread-local [`Recorder`]** with
//!   plain array arithmetic — no locks on the hot path. Engine workers
//!   call [`flush_local`] before they join; [`snapshot`] flushes the
//!   calling thread implicitly.
//! - Flushed recorders merge into the global [`Registry`]. Counter
//!   addition, gauge max, and bucketwise histogram addition are all
//!   commutative and associative, so the merged result is independent
//!   of worker scheduling and join order.
//! - [`snapshot`] produces a serde-serializable [`MetricsSnapshot`]
//!   with per-stage p50/p90/p99 latency extracted from the histograms.
//!
//! # Usage
//!
//! ```
//! use na_telemetry as tel;
//!
//! tel::set_enabled(true);
//! {
//!     let _span = tel::time(tel::Stage::Place); // RAII: records on drop
//!     // ... placement work ...
//! }
//! tel::add(tel::Counter::CompileCacheMisses, 1);
//! let snap = tel::snapshot();
//! assert_eq!(snap.counter("compile_cache_misses"), 1);
//! tel::reset();
//! tel::set_enabled(false);
//! ```

mod clock;
mod histogram;
mod recorder;
mod snapshot;
pub mod trace;

pub use clock::{iso8601_now, iso8601_utc};
pub use histogram::{Histogram, LINEAR_LIMIT, NUM_BUCKETS};
pub use recorder::Recorder;
pub use snapshot::{fmt_ns, MetricsSnapshot, StageSummary, SNAPSHOT_SCHEMA};

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Timed pipeline stages. Each owns one latency histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Gate-set lowering (`lower_for`) ahead of mapping.
    Lower,
    /// Interaction-DAG construction plus initial placement.
    Place,
    /// Routing inside the scheduler loop: SWAP insertion and forced
    /// BFS hops. The sum of [`Stage::Weights`], [`Stage::SwapSelect`]
    /// and [`Stage::ForcedHop`].
    Route,
    /// Routing sub-stage: bringing lookahead partner lists up to date
    /// (pushing completed gates through the layer window, refreshing
    /// the partners of the qubits a SWAP score reads).
    Weights,
    /// Routing sub-stage: SWAP candidate scans, scoring and zone
    /// claims, minus [`Stage::Weights`].
    SwapSelect,
    /// Routing sub-stage: forced BFS hops when a step would otherwise
    /// be empty.
    ForcedHop,
    /// Restriction-zone gate scheduling (the scheduler loop minus the
    /// routing phases reported under [`Stage::Route`]).
    Schedule,
    /// Post-compile schedule verification.
    Verify,
    /// Loss campaign: array shift / remap after an atom loss.
    Remap,
    /// Loss campaign: SWAP-fixup search over the hole-masked grid.
    LossFixup,
    /// Loss campaign: full recompilation fallback.
    Recompile,
    /// One loss-campaign shot end to end.
    Shot,
}

impl Stage {
    /// Number of stages.
    pub const COUNT: usize = 12;
    /// All stages, in snapshot order.
    pub const ALL: [Stage; Stage::COUNT] = [
        Stage::Lower,
        Stage::Place,
        Stage::Route,
        Stage::Weights,
        Stage::SwapSelect,
        Stage::ForcedHop,
        Stage::Schedule,
        Stage::Verify,
        Stage::Remap,
        Stage::LossFixup,
        Stage::Recompile,
        Stage::Shot,
    ];

    /// Dense index for array storage.
    #[inline]
    pub const fn index(self) -> usize {
        self as usize
    }

    /// Stable snake_case name used in snapshots and JSONL rows.
    pub const fn name(self) -> &'static str {
        match self {
            Stage::Lower => "lower",
            Stage::Place => "place",
            Stage::Route => "route",
            Stage::Weights => "weights",
            Stage::SwapSelect => "swap_select",
            Stage::ForcedHop => "forced_hop",
            Stage::Schedule => "schedule",
            Stage::Verify => "verify",
            Stage::Remap => "remap",
            Stage::LossFixup => "loss_fixup",
            Stage::Recompile => "recompile",
            Stage::Shot => "shot",
        }
    }
}

/// Monotonic event counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Counter {
    /// Full compiler pipeline runs.
    Compiles,
    /// Compile-cache lookups served from a memoized entry.
    CompileCacheHits,
    /// Compile-cache lookups that ran the compiler.
    CompileCacheMisses,
    /// Artifact-store placement reuses across MID points (PR 8).
    ArtifactHits,
    /// Artifact-store lowered-circuit reuses across MID points.
    ArtifactLoweredHits,
    /// Scheduled operations emitted across all compiles.
    OpsScheduled,
    /// Loss-campaign shots attempted.
    ShotsAttempted,
    /// Atom losses drawn across all shots.
    LossesDrawn,
    /// Array shifts / remaps applied after losses.
    Remaps,
    /// SWAP-fixup searches run after remaps.
    Fixups,
    /// BFS node expansions spent inside fixup searches.
    FixupBfsExpansions,
    /// Full recompilations triggered by losses.
    Recompiles,
    /// Array reloads (campaign strategy gave up on the shot state).
    Reloads,
    /// Engine jobs that produced a `Failed` row (any cause).
    JobsFailed,
    /// Engine jobs whose panic was caught and isolated into a row.
    JobsPanicked,
    /// Engine jobs that ran out of their cooperative deadline budget.
    DeadlinesExceeded,
    /// Campaign shards executed (sharded fan-out across the pool).
    CampaignShards,
}

impl Counter {
    /// Number of counters.
    pub const COUNT: usize = 17;
    /// All counters, in snapshot order.
    pub const ALL: [Counter; Counter::COUNT] = [
        Counter::Compiles,
        Counter::CompileCacheHits,
        Counter::CompileCacheMisses,
        Counter::ArtifactHits,
        Counter::ArtifactLoweredHits,
        Counter::OpsScheduled,
        Counter::ShotsAttempted,
        Counter::LossesDrawn,
        Counter::Remaps,
        Counter::Fixups,
        Counter::FixupBfsExpansions,
        Counter::Recompiles,
        Counter::Reloads,
        Counter::JobsFailed,
        Counter::JobsPanicked,
        Counter::DeadlinesExceeded,
        Counter::CampaignShards,
    ];

    /// Dense index for array storage.
    #[inline]
    pub const fn index(self) -> usize {
        self as usize
    }

    /// Stable snake_case name used in snapshots.
    pub const fn name(self) -> &'static str {
        match self {
            Counter::Compiles => "compiles",
            Counter::CompileCacheHits => "compile_cache_hits",
            Counter::CompileCacheMisses => "compile_cache_misses",
            Counter::ArtifactHits => "artifact_hits",
            Counter::ArtifactLoweredHits => "artifact_lowered_hits",
            Counter::OpsScheduled => "ops_scheduled",
            Counter::ShotsAttempted => "shots_attempted",
            Counter::LossesDrawn => "losses_drawn",
            Counter::Remaps => "remaps",
            Counter::Fixups => "fixups",
            Counter::FixupBfsExpansions => "fixup_bfs_expansions",
            Counter::Recompiles => "recompiles",
            Counter::Reloads => "reloads",
            Counter::JobsFailed => "jobs_failed",
            Counter::JobsPanicked => "jobs_panicked",
            Counter::DeadlinesExceeded => "deadlines_exceeded",
            Counter::CampaignShards => "campaign_shards",
        }
    }
}

/// High-watermark gauges (merged by `max`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Gauge {
    /// Distinct fingerprints resident in the compile cache.
    CompileCacheEntries,
    /// Worker threads the engine ran with.
    EngineWorkers,
}

impl Gauge {
    /// Number of gauges.
    pub const COUNT: usize = 2;
    /// All gauges, in snapshot order.
    pub const ALL: [Gauge; Gauge::COUNT] = [Gauge::CompileCacheEntries, Gauge::EngineWorkers];

    /// Dense index for array storage.
    #[inline]
    pub const fn index(self) -> usize {
        self as usize
    }

    /// Stable snake_case name used in snapshots.
    pub const fn name(self) -> &'static str {
        match self {
            Gauge::CompileCacheEntries => "compile_cache_entries",
            Gauge::EngineWorkers => "engine_workers",
        }
    }
}

/// A metrics sink: an enabled flag plus the merged recorder state.
///
/// The process-wide instance behind the free functions is
/// [`Registry::global`]; independent instances (e.g. for tests) can be
/// built with [`Registry::new`] / [`Registry::disabled`] and fed via
/// [`Registry::merge`].
pub struct Registry {
    enabled: AtomicBool,
    merged: Mutex<Recorder>,
}

impl Registry {
    /// A fresh registry.
    pub const fn new(enabled: bool) -> Self {
        Registry {
            enabled: AtomicBool::new(enabled),
            merged: Mutex::new(Recorder::new()),
        }
    }

    /// A fresh disabled registry — the default state of
    /// [`Registry::global`]: every event site short-circuits after one
    /// relaxed load.
    pub const fn disabled() -> Self {
        Registry::new(false)
    }

    /// The process-wide registry the free functions record into.
    pub fn global() -> &'static Registry {
        &GLOBAL
    }

    /// Whether collection is on.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turns collection on or off.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Folds a recorder into the merged state. Order-independent.
    pub fn merge(&self, recorder: &Recorder) {
        self.merged.lock().unwrap().merge_from(recorder);
    }

    /// Snapshot of the merged state (does **not** flush any
    /// thread-local recorder; see the free [`snapshot`] for that).
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot::of(&self.merged.lock().unwrap(), self.is_enabled())
    }

    /// Clears the merged state (the enabled flag is untouched).
    pub fn clear(&self) {
        self.merged.lock().unwrap().clear();
    }
}

static GLOBAL: Registry = Registry::disabled();

thread_local! {
    static LOCAL: RefCell<Recorder> = const { RefCell::new(Recorder::new()) };
}

/// Whether global collection is on. One relaxed load — this is the
/// entire cost of every event site when telemetry is disabled.
#[inline]
pub fn is_enabled() -> bool {
    GLOBAL.is_enabled()
}

/// Turns global collection on or off.
pub fn set_enabled(on: bool) {
    GLOBAL.set_enabled(on);
}

#[inline]
fn with_local<F: FnOnce(&mut Recorder)>(f: F) {
    LOCAL.with(|cell| f(&mut cell.borrow_mut()));
}

/// Adds `n` to a counter (thread-local; no-op when disabled).
#[inline]
pub fn add(counter: Counter, n: u64) {
    if !is_enabled() {
        return;
    }
    with_local(|r| r.add(counter, n));
}

/// Raises a gauge to at least `value` (thread-local; no-op when
/// disabled).
#[inline]
pub fn gauge_max(gauge: Gauge, value: u64) {
    if !is_enabled() {
        return;
    }
    with_local(|r| r.gauge_max(gauge, value));
}

/// Records a raw nanosecond sample for a stage (no-op when disabled).
#[inline]
pub fn record_ns(stage: Stage, ns: u64) {
    if !is_enabled() {
        return;
    }
    with_local(|r| r.record_ns(stage, ns));
}

/// Records an already-measured duration for a stage (no-op when
/// disabled). Used where the code measures wall time anyway (e.g. the
/// campaign's recompile fallback) so telemetry adds no extra clock
/// reads.
#[inline]
pub fn record_duration(stage: Stage, elapsed: Duration) {
    record_ns(stage, u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX));
}

/// RAII span: records the elapsed time for its stage when dropped.
/// When telemetry is disabled it holds nothing and never reads the
/// clock.
#[must_use = "the span records on drop; binding it to `_` drops it immediately"]
pub struct StageTimer {
    armed: Option<(Stage, Instant)>,
}

impl Drop for StageTimer {
    fn drop(&mut self) {
        if let Some((stage, started)) = self.armed.take() {
            record_duration(stage, started.elapsed());
        }
    }
}

/// Starts a scoped timer for `stage`.
#[inline]
pub fn time(stage: Stage) -> StageTimer {
    StageTimer {
        armed: if is_enabled() {
            Some((stage, Instant::now()))
        } else {
            None
        },
    }
}

/// Merges this thread's recorder into the global registry and clears
/// it. Engine workers call this right before joining; long-lived
/// threads may call it at any convenient boundary.
pub fn flush_local() {
    LOCAL.with(|cell| {
        let mut local = cell.borrow_mut();
        if local.is_empty() {
            return;
        }
        GLOBAL.merge(&local);
        local.clear();
    });
}

/// Flushes the calling thread and snapshots the global registry.
pub fn snapshot() -> MetricsSnapshot {
    flush_local();
    GLOBAL.snapshot()
}

/// Clears the calling thread's recorder and the global merged state.
/// (Recorders owned by other live threads are untouched.)
pub fn reset() {
    LOCAL.with(|cell| cell.borrow_mut().clear());
    GLOBAL.clear();
}

/// Position marker inside the calling thread's recorder, for carving
/// out per-job stage timings (see [`stage_deltas_since`]).
pub struct StageMark {
    totals: [u64; Stage::COUNT],
}

/// Marks the current per-stage totals on this thread.
pub fn mark_stages() -> StageMark {
    let mut totals = [0u64; Stage::COUNT];
    LOCAL.with(|cell| {
        let local = cell.borrow();
        for s in Stage::ALL {
            totals[s.index()] = local.stage(s).sum();
        }
    });
    StageMark { totals }
}

/// Nanoseconds accrued per stage on this thread since `mark`, keyed by
/// stage name; zero-delta stages are omitted. Used by the engine to
/// tag each JSONL row with its job's stage timings.
pub fn stage_deltas_since(mark: &StageMark) -> BTreeMap<String, u64> {
    let mut deltas = BTreeMap::new();
    LOCAL.with(|cell| {
        let local = cell.borrow();
        for s in Stage::ALL {
            let delta = local.stage(s).sum().saturating_sub(mark.totals[s.index()]);
            if delta > 0 {
                deltas.insert(s.name().to_string(), delta);
            }
        }
    });
    deltas
}
