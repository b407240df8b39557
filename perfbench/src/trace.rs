//! The traced run's span recorder.
//!
//! Spans are recorded only around the benchmark's own calls into each
//! layer's public functions; nothing inside the program is
//! instrumented. Spans stay in memory and are written out as Chrome
//! trace-event JSON (`B`/`E` pairs with `id`, `parent`, `job` and
//! `shard` args) when the run ends, so `natoms trace` and Perfetto can
//! read them.
//!
//! The traced run executes on one thread, so a span's children never
//! overlap and its self time is its duration minus the sum of its
//! children's durations.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Identifies the work a span belongs to: the engine row (the global
/// index of the job across the workload's specs) and, for campaign
/// shards, the shard index.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tag {
    /// Global row id, shared by every span working on that row.
    pub row: Option<u64>,
    /// Shard index within a sharded campaign row.
    pub shard: Option<u32>,
}

impl Tag {
    /// A tag naming one row.
    pub fn row(row: u64) -> Self {
        Tag {
            row: Some(row),
            shard: None,
        }
    }

    /// A tag naming one shard of one row.
    pub fn shard(row: u64, shard: u32) -> Self {
        Tag {
            row: Some(row),
            shard: Some(shard),
        }
    }
}

/// One recorded span; times are nanoseconds since the tracer started.
#[derive(Debug, Clone)]
pub struct Span {
    /// Span id (1-based; 0 means "no parent").
    pub id: u64,
    /// Id of the enclosing span, or 0 for a root.
    pub parent: u64,
    /// Layer-qualified name, e.g. `core.lower`.
    pub name: &'static str,
    /// Row/shard identifiers.
    pub tag: Tag,
    /// Begin timestamp.
    pub begin_ns: u64,
    /// End timestamp.
    pub end_ns: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.begin_ns) as f64 * 1e-9
    }
}

/// Records spans when enabled; when disabled every call just runs its
/// closure, so the untraced replay does the identical work.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records (`enabled`) or only runs closures.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Opens a span that stays open until [`Tracer::end`]; spans timed
    /// meanwhile become its children.
    pub fn begin(&mut self, name: &'static str, tag: Tag) {
        if !self.enabled {
            return;
        }
        let parent = self.open.last().map_or(0, |&i| self.spans[i].id);
        let begin_ns = self.now_ns();
        self.spans.push(Span {
            id: self.spans.len() as u64 + 1,
            parent,
            name,
            tag,
            begin_ns,
            end_ns: begin_ns,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        if !self.enabled {
            return;
        }
        let i = self.open.pop().expect("end() matches a begin()");
        self.spans[i].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, tag: Tag, f: impl FnOnce() -> T) -> T {
        self.begin(name, tag);
        let out = f();
        self.end();
        out
    }

    /// Every recorded span, in begin order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Seconds of self time per span name: each span's duration minus
    /// its children's durations, summed over spans of that name.
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if span.parent != 0 {
                child_ns[span.parent as usize - 1] += span.end_ns - span.begin_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let self_ns = (span.end_ns - span.begin_ns).saturating_sub(children);
            *out.entry(span.name).or_insert(0.0) += self_ns as f64 * 1e-9;
        }
        out
    }

    /// Durations in seconds of every span named `name`, in begin order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    }

    /// Total seconds of every span named `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.durations(name).iter().fold(0.0, |acc, x| acc + x)
    }

    /// The spans as a Chrome trace-event JSON array.
    pub fn chrome_json(&self) -> String {
        // Order B/E events by time; at equal timestamps an end sorts
        // before a begin so back-to-back siblings stay well nested.
        let mut events: Vec<(u64, bool, usize)> = Vec::with_capacity(self.spans.len() * 2);
        for (i, span) in self.spans.iter().enumerate() {
            events.push((span.begin_ns, true, i));
            events.push((span.end_ns, false, i));
        }
        events.sort_by_key(|&(ts, is_begin, i)| {
            // Ends of later-begun spans close first at a tie.
            (ts, is_begin, if is_begin { i } else { usize::MAX - i })
        });
        let mut out = String::from("[");
        for (n, &(ts, is_begin, i)) in events.iter().enumerate() {
            let span = &self.spans[i];
            if n > 0 {
                out.push(',');
            }
            let phase = if is_begin { "B" } else { "E" };
            let _ = write!(
                out,
                "\n{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"{phase}\",\"ts\":{}.{:03},\"pid\":1,\"tid\":1",
                span.name,
                span.name.split('.').next().unwrap_or(span.name),
                ts / 1_000,
                ts % 1_000
            );
            if is_begin {
                let _ = write!(out, ",\"args\":{{\"id\":{}", span.id);
                if span.parent != 0 {
                    let _ = write!(out, ",\"parent\":{}", span.parent);
                }
                if let Some(row) = span.tag.row {
                    let _ = write!(out, ",\"job\":{row}");
                }
                if let Some(shard) = span.tag.shard {
                    let _ = write!(out, ",\"shard\":{shard}");
                }
                out.push('}');
            }
            out.push('}');
        }
        out.push_str("\n]\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_disabled_records_nothing() {
        let mut t = Tracer::new(true);
        t.begin("root", Tag::default());
        t.time("a", Tag::row(0), || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.time("b", Tag::shard(0, 1), || ());
        t.end();
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!((spans[1].parent, spans[2].parent), (1, 1));
        let selfs = t.self_times();
        let root = spans[0].secs();
        let sum: f64 = selfs.values().sum();
        assert!((sum - root).abs() < 1e-9, "self times partition the root");
        assert!(t.chrome_json().contains("\"shard\":1"));

        let mut off = Tracer::new(false);
        assert_eq!(off.time("a", Tag::row(0), || 7), 7);
        assert!(off.spans().is_empty());
    }
}
