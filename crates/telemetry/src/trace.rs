//! Causal span tracing: begin/end/instant events on a per-thread
//! timeline, exported as Chrome trace-event JSON (Perfetto,
//! `chrome://tracing`).
//!
//! This module has no span type of its own: a [`Span`](crate::Span) of
//! a traced [`Stage`] writes its begin/end pair here from the same two
//! clock reads that feed the stage histogram, so a trace holds one span
//! per compile pass, engine job, campaign shard and merge, and cache
//! wait, named after the stage. Instants come from the counters that
//! mark the timeline ([`add`](crate::add)) and from [`instant`] for the
//! fault markers that carry a message.
//!
//! The contract matches the rest of `na-telemetry`: one relaxed load
//! and a branch per site when tracing is off (the default); no RNG
//! draws, float folds or output bytes change (`tests/trace_guard.rs`);
//! and events flushed from each thread's buffer at join are
//! stable-sorted by `(tid, timestamp)` at export, so the file is
//! deterministic in structure at any worker count.
//!
//! Span identity is explicit: every span gets a process-unique id and
//! records its parent id (the enclosing span on the same thread, or an
//! explicit [`Parent`] for cross-thread edges such as campaign shards
//! under their job span). Ids travel in the Chrome `args` map (`id`,
//! `parent`), since the format itself only nests by timestamp within
//! one track.

use crate::{Parent, Stage};
use std::io::{self, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Process-unique span id allocator. 0 means "no span".
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);

/// Thread ids for threads that never called [`set_thread_tid`]
/// (the main thread, test threads). Engine workers claim small ids
/// (1..=workers); lazy ids start high so the tracks never collide.
static NEXT_LAZY_TID: AtomicU64 = AtomicU64::new(LAZY_TID_BASE);

/// Events dropped because a thread buffer hit [`BUFFER_CAP`].
static DROPPED: AtomicU64 = AtomicU64::new(0);

/// Events flushed from every thread, awaiting export.
static MERGED: Mutex<Vec<TraceEvent>> = Mutex::new(Vec::new());

/// First lazily allocated tid (see [`NEXT_LAZY_TID`]).
pub const LAZY_TID_BASE: u64 = 100;

/// Virtual track base for whole-job spans of sharded campaign jobs:
/// the job span is emitted on track `JOB_TRACK_BASE + job_index` so
/// it does not interleave with whichever worker ran the merge.
pub const JOB_TRACK_BASE: u64 = 1_000_000;

/// Per-thread event-buffer capacity. Spans are per pass and per job
/// (never per shot), so real runs sit far below this; if a buffer
/// fills anyway we drop and count rather than grow unboundedly.
const BUFFER_CAP: usize = 1 << 16;

fn epoch() -> &'static Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the process trace epoch: the one clock every
/// span reads.
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// Is tracing collecting? One relaxed load.
#[inline]
pub fn is_enabled() -> bool {
    crate::sinks() & crate::TRACE != 0
}

/// Turn collection on or off. Enabling pins the trace epoch.
pub fn set_enabled(enabled: bool) {
    if enabled {
        epoch();
    }
    crate::GLOBAL.set_sink(crate::TRACE, enabled);
}

/// An argument value attached to an event.
#[derive(Debug, Clone)]
pub enum ArgValue {
    U64(u64),
    Str(String),
}

/// Chrome trace-event phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// `"B"` — span begin.
    Begin,
    /// `"E"` — span end.
    End,
    /// `"i"` — instant (thread-scoped).
    Instant,
}

/// One trace event. `ts_ns` is nanoseconds since the process epoch;
/// the Chrome export divides to microseconds.
#[derive(Debug, Clone)]
pub struct TraceEvent {
    pub name: &'static str,
    pub cat: &'static str,
    pub phase: Phase,
    pub ts_ns: u64,
    pub tid: u64,
    /// Span id (0 for instants).
    pub id: u64,
    /// Enclosing span id (0 = root).
    pub parent: u64,
    pub args: Vec<(&'static str, ArgValue)>,
}

/// The calling thread's trace buffer (part of the crate's one
/// thread-local).
pub(crate) struct Buf {
    events: Vec<TraceEvent>,
    /// Stack of open span ids on this thread (implicit parents).
    stack: Vec<u64>,
    /// Track id; 0 until the first event claims a lazy one.
    tid: u64,
}

impl Buf {
    pub(crate) const fn new() -> Self {
        Buf {
            events: Vec::new(),
            stack: Vec::new(),
            tid: 0,
        }
    }

    fn tid(&mut self) -> u64 {
        if self.tid == 0 {
            self.tid = NEXT_LAZY_TID.fetch_add(1, Ordering::Relaxed);
        }
        self.tid
    }

    #[allow(clippy::too_many_arguments)]
    fn push(
        &mut self,
        name: &'static str,
        cat: &'static str,
        phase: Phase,
        ts_ns: u64,
        tid: u64,
        id: u64,
        parent: u64,
        args: Vec<(&'static str, ArgValue)>,
    ) {
        if self.events.len() >= BUFFER_CAP {
            DROPPED.fetch_add(1, Ordering::Relaxed);
            return;
        }
        self.events.push(TraceEvent {
            name,
            cat,
            phase,
            ts_ns,
            tid,
            id,
            parent,
            args,
        });
    }

    /// Writes a span's begin event; returns its id and, for a
    /// [`Parent::Track`] span, its track (0 otherwise).
    pub(crate) fn begin(
        &mut self,
        stage: Stage,
        ts_ns: u64,
        parent: Parent,
        args: Vec<(&'static str, ArgValue)>,
    ) -> (u64, u64) {
        let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
        let (tid, parent, track) = match parent {
            Parent::Enclosing => (self.tid(), self.stack.last().copied().unwrap_or(0), 0),
            Parent::Span(parent) => (self.tid(), parent, 0),
            Parent::Track(track) => (track, 0, track),
        };
        let (name, cat) = (stage.name(), stage.category());
        self.push(name, cat, Phase::Begin, ts_ns, tid, id, parent, args);
        if track == 0 {
            self.stack.push(id);
        }
        (id, track)
    }

    /// Writes a span's end event.
    pub(crate) fn end(&mut self, stage: Stage, id: u64, track: u64, ts_ns: u64) {
        let tid = if track != 0 {
            track
        } else {
            // Pop our own id; tolerate a foreign top if spans ended
            // out of order (they never do in practice).
            if let Some(pos) = self.stack.iter().rposition(|&s| s == id) {
                self.stack.remove(pos);
            }
            self.tid()
        };
        let (name, cat) = (stage.name(), stage.category());
        self.push(name, cat, Phase::End, ts_ns, tid, id, 0, Vec::new());
    }

    /// Writes an instant under the innermost open span.
    pub(crate) fn instant(
        &mut self,
        cat: &'static str,
        name: &'static str,
        args: Vec<(&'static str, ArgValue)>,
    ) {
        let parent = self.stack.last().copied().unwrap_or(0);
        let tid = self.tid();
        self.push(name, cat, Phase::Instant, now_ns(), tid, 0, parent, args);
    }

    /// Moves the buffered events into the export.
    pub(crate) fn flush(&mut self) {
        if !self.events.is_empty() {
            MERGED.lock().unwrap().append(&mut self.events);
        }
    }
}

/// Pin this thread's track id (engine workers use their worker index
/// so the Perfetto rows read `tid 1..=N`). Must be called before the
/// thread records its first event to take effect from the start.
pub fn set_thread_tid(tid: u64) {
    if is_enabled() {
        crate::with_local(|l| l.trace.tid = tid);
    }
}

/// Record a thread-scoped instant event: the failure-domain markers
/// that carry a message (instants without one come from
/// [`add`](crate::add)). `args` is called only while tracing.
pub fn instant(
    cat: &'static str,
    name: &'static str,
    args: impl FnOnce() -> Vec<(&'static str, ArgValue)>,
) {
    if is_enabled() {
        crate::with_local(|l| l.trace.instant(cat, name, args()));
    }
}

/// Flush this thread and drain every merged event, stable-sorted by
/// `(tid, ts_ns)`. Leaves the registry empty.
pub fn take_events() -> Vec<TraceEvent> {
    crate::flush_local();
    let mut events = std::mem::take(&mut *MERGED.lock().unwrap());
    events.sort_by_key(|e| (e.tid, e.ts_ns));
    events
}

/// Clear all trace state (merged events, drop counter). Thread-local
/// buffers of *other* threads are untouched, so call between runs,
/// not mid-run.
pub fn reset() {
    crate::with_local(|l| {
        l.trace.events.clear();
        l.trace.stack.clear();
    });
    MERGED.lock().unwrap().clear();
    DROPPED.store(0, Ordering::Relaxed);
}

fn escape_json(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

fn write_event(out: &mut String, ev: &TraceEvent) {
    out.push_str("{\"name\":\"");
    escape_json(ev.name, out);
    out.push_str("\",\"cat\":\"");
    escape_json(ev.cat, out);
    out.push_str("\",\"ph\":\"");
    out.push_str(match ev.phase {
        Phase::Begin => "B",
        Phase::End => "E",
        Phase::Instant => "i",
    });
    out.push('"');
    if ev.phase == Phase::Instant {
        out.push_str(",\"s\":\"t\"");
    }
    // Microseconds with nanosecond precision preserved.
    out.push_str(&format!(
        ",\"ts\":{}.{:03}",
        ev.ts_ns / 1_000,
        ev.ts_ns % 1_000
    ));
    out.push_str(&format!(",\"pid\":1,\"tid\":{}", ev.tid));
    if ev.id != 0 || ev.parent != 0 || !ev.args.is_empty() {
        out.push_str(",\"args\":{");
        let mut first = true;
        let field = |out: &mut String, key: &str, first: &mut bool| {
            if !*first {
                out.push(',');
            }
            *first = false;
            out.push('"');
            escape_json(key, out);
            out.push_str("\":");
        };
        if ev.id != 0 {
            field(out, "id", &mut first);
            out.push_str(&ev.id.to_string());
        }
        if ev.parent != 0 {
            field(out, "parent", &mut first);
            out.push_str(&ev.parent.to_string());
        }
        for (key, value) in &ev.args {
            field(out, key, &mut first);
            match value {
                ArgValue::U64(v) => out.push_str(&v.to_string()),
                ArgValue::Str(s) => {
                    out.push('"');
                    escape_json(s, out);
                    out.push('"');
                }
            }
        }
        out.push('}');
    }
    out.push('}');
}

/// Serialize events as a Chrome trace-event JSON array (the format
/// Perfetto and `chrome://tracing` load directly). Hand-rolled so the
/// telemetry crate stays serde_json-free.
pub fn render_chrome_trace(events: &[TraceEvent]) -> String {
    let mut out = String::with_capacity(events.len() * 96 + 2);
    out.push('[');
    for (i, ev) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('\n');
        write_event(&mut out, ev);
    }
    out.push_str("\n]\n");
    out
}

/// Drain all events (see [`take_events`]) and write them to `w` as
/// Chrome trace JSON. Returns the number of events written. If any
/// events were dropped on full buffers, a final instant event
/// `trace_buffer_dropped` records the count.
pub fn write_chrome_trace<W: Write>(w: &mut W) -> io::Result<usize> {
    let mut events = take_events();
    let dropped = DROPPED.load(Ordering::Relaxed);
    if dropped > 0 {
        events.push(TraceEvent {
            name: "trace_buffer_dropped",
            cat: "trace",
            phase: Phase::Instant,
            ts_ns: now_ns(),
            tid: LAZY_TID_BASE,
            id: 0,
            parent: 0,
            args: vec![("dropped", ArgValue::U64(dropped))],
        });
    }
    let n = events.len();
    w.write_all(render_chrome_trace(&events).as_bytes())?;
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{time, Span, Stage};

    // Trace state is process-global; keep every test under one lock.
    fn lock() -> std::sync::MutexGuard<'static, ()> {
        static GUARD: Mutex<()> = Mutex::new(());
        GUARD.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_sites_record_nothing() {
        let _g = lock();
        set_enabled(false);
        reset();
        {
            let s = time(Stage::Job);
            assert_eq!(s.id(), 0);
            instant("test", "nothing", || panic!("args built while disabled"));
            crate::add(crate::Counter::CompileCacheHits, 1);
            assert_eq!(s.finish(), 0, "an inert span reads no clock");
        }
        assert_eq!(take_events().len(), 0);
    }

    #[test]
    fn spans_nest_and_balance() {
        let _g = lock();
        set_enabled(true);
        reset();
        let parent_id;
        {
            let outer = time(Stage::Job);
            parent_id = outer.id();
            assert_ne!(parent_id, 0);
            {
                let _inner = Span::open(Stage::Lower, false, Parent::Enclosing, || {
                    vec![("k", ArgValue::U64(7))]
                });
                crate::add(crate::Counter::CompileCacheHits, 1);
                // Untraced stages and counters write nothing.
                let _shot = time(Stage::Shot);
                crate::add(crate::Counter::ShotsAttempted, 1);
            }
        }
        let events = take_events();
        set_enabled(false);
        assert_eq!(events.len(), 5);
        let begins: Vec<_> = events.iter().filter(|e| e.phase == Phase::Begin).collect();
        let ends = events.iter().filter(|e| e.phase == Phase::End).count();
        assert_eq!(begins.len(), 2);
        assert_eq!(ends, 2);
        let inner = begins.iter().find(|e| e.name == "lower").unwrap();
        assert_eq!(inner.parent, parent_id);
        assert_eq!(inner.cat, "pass");
        let hit = events
            .iter()
            .find(|e| e.name == "compile_cache_hits")
            .unwrap();
        assert_eq!((hit.phase, hit.cat), (Phase::Instant, "cache"));
        assert_ne!(hit.parent, 0);
    }

    #[test]
    fn complete_spans_carry_explicit_track_and_parent() {
        let _g = lock();
        set_enabled(true);
        reset();
        let job = Span::open(
            Stage::CampaignJob,
            false,
            Parent::Track(JOB_TRACK_BASE + 3),
            || vec![("job", ArgValue::U64(3))],
        );
        let job_id = job.id();
        // A child on another thread links to the job span by id, and
        // the job span ends there too.
        let shard_parent = std::thread::scope(|s| {
            s.spawn(move || {
                let shard = Span::open(Stage::Shard, false, Parent::Span(job_id), Vec::new);
                drop(shard);
                job.finish();
                crate::flush_local();
            })
            .join()
            .unwrap();
            job_id
        });
        let events = take_events();
        set_enabled(false);
        assert_eq!(events.len(), 4);
        let on_track: Vec<_> = events
            .iter()
            .filter(|e| e.tid == JOB_TRACK_BASE + 3)
            .collect();
        assert_eq!(on_track.len(), 2);
        assert!(on_track.iter().all(|e| e.name == "campaign_job"));
        assert!(on_track[0].ts_ns <= on_track[1].ts_ns);
        let shard = events
            .iter()
            .find(|e| e.name == "shard" && e.phase == Phase::Begin)
            .unwrap();
        assert_eq!(shard.parent, shard_parent);
    }

    #[test]
    fn chrome_render_is_valid_shape() {
        let _g = lock();
        set_enabled(true);
        reset();
        {
            let _s = Span::open(Stage::Job, false, Parent::Enclosing, || {
                vec![("msg", ArgValue::Str("line1\n\"quoted\"".into()))]
            });
        }
        let mut buf = Vec::new();
        let n = write_chrome_trace(&mut buf).unwrap();
        set_enabled(false);
        assert_eq!(n, 2);
        let text = String::from_utf8(buf).unwrap();
        assert!(text.trim_start().starts_with('['));
        assert!(text.trim_end().ends_with(']'));
        assert!(text.contains("\\n"));
        assert!(text.contains("\\\"quoted\\\""));
        assert!(text.contains("\"ph\":\"B\""));
        assert!(text.contains("\"ph\":\"E\""));
    }

    #[test]
    fn events_sorted_by_tid_then_ts() {
        let _g = lock();
        set_enabled(true);
        reset();
        let late_track = Span::open(Stage::CampaignJob, false, Parent::Track(50), Vec::new);
        let early_track = Span::open(Stage::CampaignJob, false, Parent::Track(2), Vec::new);
        drop(late_track);
        drop(early_track);
        let events = take_events();
        set_enabled(false);
        let tids: Vec<u64> = events.iter().map(|e| e.tid).collect();
        assert_eq!(tids, vec![2, 2, 50, 50]);
    }

    #[test]
    fn one_measurement_feeds_histogram_trace_and_caller() {
        let _g = lock();
        set_enabled(true);
        crate::set_enabled(true);
        reset();
        crate::reset();
        let ns = Span::open(Stage::Finalize, true, Parent::Enclosing, Vec::new).finish();
        let snap = crate::snapshot();
        let events = take_events();
        crate::set_enabled(false);
        set_enabled(false);
        crate::reset();
        assert_eq!(snap.stage("finalize").unwrap().total_ns, ns);
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].ts_ns - events[0].ts_ns, ns);
        // With both sinks off, `measure` still reads the clock for the
        // caller, and records nowhere.
        let span = Span::open(Stage::Finalize, true, Parent::Enclosing, Vec::new);
        std::thread::sleep(std::time::Duration::from_millis(1));
        assert!(span.finish() >= 1_000_000);
        assert!(crate::snapshot().is_empty());
    }
}
