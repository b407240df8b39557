//! `na-telemetry`: zero-dependency structured instrumentation.
//!
//! One timing primitive: [`time`] opens a [`Span`], which reads the
//! clock once at the start and once at the end. That one measurement
//! feeds the stage's latency histogram when metrics are on
//! ([`set_enabled`], `--metrics`), writes begin/end trace events named
//! [`Stage::name`] when tracing is on ([`trace::set_enabled`],
//! `--trace`), and is returned by [`Span::finish`] (the pass report's
//! time). [`Stage`] is the one set of names for all three. A counter
//! is one [`add`] call, which for the counters that mark the timeline
//! also writes an instant named after the counter.
//!
//! **Instrumentation is strictly observational**: it draws no RNG,
//! changes no float accumulation order, and with both sinks off (the
//! default) every event site costs one relaxed atomic load and a
//! branch and touches no thread-local state, so all golden digests are
//! byte-identical with metrics and tracing on or off.
//!
//! Events land in **one thread-local buffer** (a [`Recorder`],
//! allocated on first use, plus the thread's trace events) with no
//! locks on the hot path. Engine workers call [`flush_local`] once
//! before they join; [`snapshot`] and [`trace::take_events`] flush the
//! calling thread. Counter addition, gauge max, and bucketwise
//! histogram addition are commutative and associative, so the merged
//! [`Registry`] is independent of worker scheduling and join order.
//!
//! ```
//! use na_telemetry as tel;
//!
//! tel::set_enabled(true);
//! {
//!     let _span = tel::time(tel::Stage::Place); // records on drop
//!     // ... placement work ...
//! }
//! tel::add(tel::Counter::CompileCacheMisses, 1);
//! let snap = tel::snapshot();
//! assert_eq!(snap.counter("compile_cache_misses"), 1);
//! assert_eq!(snap.stage("place").unwrap().count, 1);
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
pub use trace::ArgValue;

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Mutex;

/// Declares a dense, named instrumentation enum: the variants,
/// `COUNT`, `ALL`, `index`, the stable snake_case `name` and, in the
/// second form, a per-variant `meta` value.
macro_rules! named_enum {
    ($(#[$doc:meta])* $ty:ident { $($(#[$vdoc:meta])* $v:ident = $name:literal),* $(,)? }) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum $ty {
            $($(#[$vdoc])* $v,)*
        }

        impl $ty {
            /// Number of variants.
            pub const COUNT: usize = [$($name),*].len();
            /// All variants, in snapshot order.
            pub const ALL: [$ty; $ty::COUNT] = [$($ty::$v),*];

            /// Dense index for array storage.
            #[inline]
            pub const fn index(self) -> usize {
                self as usize
            }

            /// Stable snake_case name used in snapshots, trace events
            /// and JSONL rows.
            pub const fn name(self) -> &'static str {
                match self {
                    $($ty::$v => $name,)*
                }
            }
        }
    };
    ($(#[$doc:meta])* $ty:ident: $meta:ty {
        $($(#[$vdoc:meta])* $v:ident = $name:literal => $m:expr),* $(,)?
    }) => {
        named_enum!($(#[$doc])* $ty { $($(#[$vdoc])* $v = $name),* });

        impl $ty {
            #[inline]
            const fn meta(self) -> $meta {
                match self {
                    $($ty::$v => $m,)*
                }
            }
        }
    };
}

named_enum! {
    /// Timed stages. Each owns one latency histogram, and a span of a
    /// traced stage is a trace span of the same name. The meta value
    /// is `(category, traced)`.
    Stage: (&'static str, bool) {
        /// Pass: gate-set lowering (`lower_for`) or its artifact reuse.
        Lower = "lower" => ("pass", true),
        /// Pass: rejects native gates no placement can bring within
        /// the MID.
        ValidateArity = "validate_arity" => ("pass", true),
        /// Pass: capacity check plus initial placement (or its reuse).
        Place = "place" => ("pass", true),
        /// Pass: the restriction-zone scheduler, including the
        /// interaction-graph lookup. Split further by the scheduler
        /// into [`Stage::Route`] and [`Stage::Schedule`].
        RouteSchedule = "route_schedule" => ("pass", true),
        /// Pass: in-pipeline schedule verification; also the public
        /// `na_core::verify` entry point.
        Verify = "verify" => ("pass", true),
        /// Pass: assembles the compiled circuit.
        Finalize = "finalize" => ("pass", true),
        /// Scheduler: SWAP insertion and forced BFS hops. The sum of
        /// [`Stage::Weights`], [`Stage::SwapSelect`] and
        /// [`Stage::ForcedHop`].
        Route = "route" => ("scheduler", true),
        /// Routing sub-stage: bringing lookahead partner lists up to
        /// date (pushing completed gates through the layer window,
        /// refreshing the partners of the qubits a SWAP score reads).
        Weights = "weights" => ("scheduler", true),
        /// Routing sub-stage: SWAP candidate scans, scoring and zone
        /// claims, minus [`Stage::Weights`].
        SwapSelect = "swap_select" => ("scheduler", true),
        /// Routing sub-stage: forced BFS hops when a step would
        /// otherwise be empty.
        ForcedHop = "forced_hop" => ("scheduler", true),
        /// Scheduler: restriction-zone gate scheduling (the scheduler
        /// loop minus [`Stage::Route`]).
        Schedule = "schedule" => ("scheduler", true),
        /// Loss campaign: array shift / remap after an atom loss.
        Remap = "remap" => ("campaign", false),
        /// Loss campaign: SWAP-fixup search over the hole-masked grid.
        LossFixup = "loss_fixup" => ("campaign", false),
        /// Loss campaign: full recompilation fallback.
        Recompile = "recompile" => ("campaign", false),
        /// One loss-campaign shot end to end.
        Shot = "shot" => ("campaign", false),
        /// One engine job on its worker.
        Job = "job" => ("job", true),
        /// One shot-range shard of a sharded campaign.
        Shard = "shard" => ("shard", true),
        /// The in-order merge of a sharded campaign's shards.
        Merge = "merge" => ("shard", true),
        /// A sharded campaign job, from fan-out to merge, on its own
        /// virtual track.
        CampaignJob = "campaign_job" => ("job", true),
        /// Waiting on another thread's in-flight compile of the same
        /// cache key.
        CacheWait = "cache_wait" => ("cache", true),
    }
}

impl Stage {
    /// Trace category of the stage's spans (`"pass"` for the compile
    /// passes).
    pub const fn category(self) -> &'static str {
        self.meta().0
    }

    /// Whether spans of this stage write trace events. The per-shot
    /// campaign stages do not: a trace holds spans per pass, job and
    /// shard, never per shot.
    pub const fn traced(self) -> bool {
        self.meta().1
    }
}

named_enum! {
    /// Monotonic event counters. The meta value is the trace category
    /// of the instant an [`add`] writes while tracing, for the counters
    /// that mark the timeline.
    Counter: Option<&'static str> {
        /// Full compiler pipeline runs.
        Compiles = "compiles" => None,
        /// Compile-cache lookups served from a memoized entry.
        CompileCacheHits = "compile_cache_hits" => Some("cache"),
        /// Compile-cache lookups that ran the compiler.
        CompileCacheMisses = "compile_cache_misses" => Some("cache"),
        /// Artifact-store placement reuses across MID points.
        ArtifactHits = "artifact_hits" => Some("artifact"),
        /// Artifact-store lowered-circuit reuses across MID points.
        ArtifactLoweredHits = "artifact_lowered_hits" => Some("artifact"),
        /// Scheduled operations emitted across all compiles.
        OpsScheduled = "ops_scheduled" => None,
        /// Loss-campaign shots attempted.
        ShotsAttempted = "shots_attempted" => None,
        /// Atom losses drawn across all shots.
        LossesDrawn = "losses_drawn" => None,
        /// Array shifts / remaps applied after losses.
        Remaps = "remaps" => None,
        /// SWAP-fixup searches run after remaps.
        Fixups = "fixups" => None,
        /// BFS node expansions spent inside fixup searches.
        FixupBfsExpansions = "fixup_bfs_expansions" => None,
        /// Full recompilations triggered by losses.
        Recompiles = "recompiles" => None,
        /// Array reloads (campaign strategy gave up on the shot state).
        Reloads = "reloads" => Some("campaign"),
        /// Engine jobs that produced a `Failed` row (any cause).
        JobsFailed = "jobs_failed" => None,
        /// Engine jobs whose panic was caught and isolated into a row.
        JobsPanicked = "jobs_panicked" => None,
        /// Engine jobs that ran out of their cooperative deadline budget.
        DeadlinesExceeded = "deadlines_exceeded" => None,
        /// Campaign shards executed (sharded fan-out across the pool).
        CampaignShards = "campaign_shards" => None,
    }
}

named_enum! {
    /// High-watermark gauges (merged by `max`).
    Gauge {
        /// Distinct fingerprints resident in the compile cache.
        CompileCacheEntries = "compile_cache_entries",
        /// Worker threads the engine ran with.
        EngineWorkers = "engine_workers",
    }
}

/// Sink bit: aggregate into the metrics registry.
const METRICS: u8 = 1;
/// Sink bit: write trace events.
const TRACE: u8 = 2;
/// Not a sink: a span that reads the clock for its caller even with
/// both sinks off.
const CLOCK: u8 = 4;

/// A metrics sink: the sink switches plus the merged recorder state.
///
/// The process-wide instance behind the free functions is
/// [`Registry::global`]; independent instances (e.g. for tests) can be
/// built with [`Registry::new`] and fed via [`Registry::merge`].
pub struct Registry {
    /// Sink bits ([`METRICS`], and [`TRACE`] on the global instance):
    /// one word, so an event site reads both with one relaxed load.
    sinks: AtomicU8,
    merged: Mutex<Recorder>,
}

impl Registry {
    /// A fresh registry.
    pub const fn new(enabled: bool) -> Self {
        Registry {
            sinks: AtomicU8::new(if enabled { METRICS } else { 0 }),
            merged: Mutex::new(Recorder::new()),
        }
    }

    /// The process-wide registry the free functions record into.
    pub fn global() -> &'static Registry {
        &GLOBAL
    }

    /// Whether collection is on.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.sinks.load(Ordering::Relaxed) & METRICS != 0
    }

    /// Turns collection on or off.
    pub fn set_enabled(&self, on: bool) {
        self.set_sink(METRICS, on);
    }

    fn set_sink(&self, bit: u8, on: bool) {
        if on {
            self.sinks.fetch_or(bit, Ordering::Relaxed);
        } else {
            self.sinks.fetch_and(!bit, Ordering::Relaxed);
        }
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

static GLOBAL: Registry = Registry::new(false);

/// The calling thread's share of both sinks.
struct Local {
    /// Boxed and allocated on first record, so a thread that never
    /// records (every thread while metrics are off) carries no
    /// histograms.
    recorder: Option<Box<Recorder>>,
    trace: trace::Buf,
}

impl Local {
    fn recorder(&mut self) -> &mut Recorder {
        self.recorder.get_or_insert_with(Box::default)
    }
}

thread_local! {
    static LOCAL: RefCell<Local> = const {
        RefCell::new(Local {
            recorder: None,
            trace: trace::Buf::new(),
        })
    };
}

#[inline]
fn with_local<R>(f: impl FnOnce(&mut Local) -> R) -> R {
    LOCAL.with(|cell| f(&mut cell.borrow_mut()))
}

/// Both sink switches, with one relaxed load.
#[inline]
fn sinks() -> u8 {
    GLOBAL.sinks.load(Ordering::Relaxed)
}

/// Whether global metrics collection is on. One relaxed load — this is
/// the entire cost of every event site when both sinks are off.
#[inline]
pub fn is_enabled() -> bool {
    sinks() & METRICS != 0
}

/// Turns global metrics collection on or off.
pub fn set_enabled(on: bool) {
    GLOBAL.set_enabled(on);
}

/// Adds `n` to a counter (thread-local; no-op when disabled). While
/// tracing, a counter that marks the timeline (see [`Counter`]) also
/// writes an instant named after it.
#[inline]
pub fn add(counter: Counter, n: u64) {
    let sinks = sinks();
    let instant = counter.meta().filter(|_| sinks & TRACE != 0);
    if sinks & METRICS == 0 && instant.is_none() {
        return;
    }
    with_local(|l| {
        if sinks & METRICS != 0 {
            l.recorder().add(counter, n);
        }
        if let Some(cat) = instant {
            l.trace.instant(cat, counter.name(), Vec::new());
        }
    });
}

/// Raises a gauge to at least `value` (thread-local; no-op when
/// disabled).
#[inline]
pub fn gauge_max(gauge: Gauge, value: u64) {
    if is_enabled() {
        with_local(|l| l.recorder().gauge_max(gauge, value));
    }
}

/// Records a raw nanosecond sample for a stage (no-op when disabled),
/// for time the code measures anyway where no span can sit: the
/// scheduler's accumulated routing split, the campaign's recompile
/// fallback.
#[inline]
pub fn record_ns(stage: Stage, ns: u64) {
    if is_enabled() {
        with_local(|l| l.recorder().record_ns(stage, ns));
    }
}

/// Where a span sits on the trace timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Parent {
    /// Under the innermost open span on this thread.
    Enclosing,
    /// Under an explicit span id, possibly opened on another thread
    /// (a campaign shard under its job span).
    Span(u64),
    /// A root span on an explicit track, which may end on another
    /// thread (a sharded campaign's job span, ended by whichever
    /// worker merges the last shard).
    Track(u64),
}

/// A timed stage: one clock read at open, one at end. See the crate
/// docs. An inert span (both sinks off, no caller measurement) reads
/// no clock and touches no thread-local state.
#[must_use = "a span ends when dropped; binding it to `_` ends it at once"]
#[derive(Debug)]
pub struct Span {
    stage: Stage,
    /// Sink bits fixed at open; 0 once ended (or inert).
    sinks: u8,
    start_ns: u64,
    /// Trace span id (0 when untraced).
    id: u64,
    /// Explicit track of a [`Parent::Track`] span (0 = this thread's).
    track: u64,
}

/// Opens a span for `stage` under the enclosing span.
#[inline]
pub fn time(stage: Stage) -> Span {
    Span::open(stage, false, Parent::Enclosing, Vec::new)
}

impl Span {
    /// Opens a span. `measure` reads the clock even with both sinks
    /// off, for a caller that reports [`Span::finish`] itself (the
    /// pass pipeline's report). `args` is called only when the span is
    /// traced.
    #[inline]
    pub fn open(
        stage: Stage,
        measure: bool,
        parent: Parent,
        args: impl FnOnce() -> Vec<(&'static str, ArgValue)>,
    ) -> Span {
        let mut sinks = sinks();
        if !stage.traced() {
            sinks &= !TRACE;
        }
        if measure {
            sinks |= CLOCK;
        }
        let mut span = Span {
            stage,
            sinks,
            start_ns: 0,
            id: 0,
            track: 0,
        };
        if sinks == 0 {
            return span;
        }
        span.start_ns = trace::now_ns();
        if sinks & TRACE != 0 {
            (span.id, span.track) =
                with_local(|l| l.trace.begin(stage, span.start_ns, parent, args()));
        }
        span
    }

    /// The trace span id, for explicit child links across threads (0
    /// when untraced).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Ends the span and returns its elapsed nanoseconds — the same
    /// value the histogram and the trace events got (0 for an inert
    /// span).
    pub fn finish(mut self) -> u64 {
        self.end()
    }

    fn end(&mut self) -> u64 {
        let sinks = std::mem::take(&mut self.sinks);
        if sinks == 0 {
            return 0;
        }
        let end_ns = trace::now_ns();
        let ns = end_ns.saturating_sub(self.start_ns);
        if sinks & (METRICS | TRACE) != 0 {
            with_local(|l| {
                if sinks & METRICS != 0 {
                    l.recorder().record_ns(self.stage, ns);
                }
                if sinks & TRACE != 0 {
                    l.trace.end(self.stage, self.id, self.track, end_ns);
                }
            });
        }
        ns
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        self.end();
    }
}

/// Merges this thread's recorder into the global registry and its
/// trace events into the trace export, clearing both. Engine workers
/// call this once right before joining; long-lived threads may call it
/// at any convenient boundary.
pub fn flush_local() {
    with_local(|l| {
        if let Some(recorder) = l.recorder.as_deref_mut().filter(|r| !r.is_empty()) {
            GLOBAL.merge(recorder);
            recorder.clear();
        }
        l.trace.flush();
    });
}

/// Flushes the calling thread and snapshots the global registry.
pub fn snapshot() -> MetricsSnapshot {
    flush_local();
    GLOBAL.snapshot()
}

/// Flushes the calling thread and takes the global merged state,
/// leaving the registry empty: the metrics of one interval of a run
/// (`natoms bench` takes one per workload).
pub fn take_merged() -> Recorder {
    flush_local();
    std::mem::take(&mut *GLOBAL.merged.lock().unwrap())
}

/// Clears the calling thread's recorder and the global merged state.
/// (Recorders owned by other live threads are untouched.)
pub fn reset() {
    with_local(|l| {
        if let Some(recorder) = l.recorder.as_deref_mut() {
            recorder.clear();
        }
    });
    GLOBAL.clear();
}

/// Position marker inside the calling thread's recorder, for carving
/// out per-job stage timings (see [`stage_deltas_since`]).
pub struct StageMark {
    totals: [u64; Stage::COUNT],
}

fn stage_totals() -> [u64; Stage::COUNT] {
    with_local(|l| {
        let mut totals = [0u64; Stage::COUNT];
        if let Some(recorder) = l.recorder.as_deref() {
            for s in Stage::ALL {
                totals[s.index()] = recorder.stage(s).sum();
            }
        }
        totals
    })
}

/// Marks the current per-stage totals on this thread.
pub fn mark_stages() -> StageMark {
    StageMark {
        totals: stage_totals(),
    }
}

/// Nanoseconds accrued per stage on this thread since `mark`, keyed by
/// stage name; zero-delta stages are omitted. Used by the engine to
/// tag each JSONL row with its job's stage timings.
pub fn stage_deltas_since(mark: &StageMark) -> BTreeMap<String, u64> {
    let totals = stage_totals();
    Stage::ALL
        .iter()
        .map(|s| (s, totals[s.index()].saturating_sub(mark.totals[s.index()])))
        .filter(|&(_, delta)| delta > 0)
        .map(|(s, delta)| (s.name().to_string(), delta))
        .collect()
}
