//! In-memory spans recorded around calls into each layer.
//!
//! A span has a name, a start, an end, an optional parent and the id of
//! the job it belongs to. Spans stay in memory while the benchmark runs
//! and are written out once at the end. A span's *self time* is its
//! duration minus the union of its children's intervals (clipped to the
//! span), so overlapping children are not subtracted twice.

use qse_util::json::Json;
use std::path::Path;
use std::time::{Duration, Instant};

/// Index of a recorded span.
pub type SpanId = usize;

/// One recorded interval.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer name, e.g. `circuit.transpile`.
    pub name: &'static str,
    /// The job every span of one request shares.
    pub job: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Start instant.
    pub start: Instant,
    /// End instant.
    pub end: Instant,
}

impl Span {
    /// `end − start`.
    pub fn duration(&self) -> Duration {
        self.end.saturating_duration_since(self.start)
    }
}

/// The span store.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// An empty store whose written offsets count from `origin`, which
    /// must not be later than any span it will hold.
    pub fn new(origin: Instant) -> Self {
        Tracer {
            origin,
            spans: Vec::new(),
        }
    }

    /// Records an interval measured by the caller.
    pub fn record(
        &mut self,
        name: &'static str,
        job: u64,
        parent: Option<SpanId>,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        self.spans.push(Span {
            name,
            job,
            parent,
            start,
            end,
        });
        self.spans.len() - 1
    }

    /// Opens a span starting now; [`Self::close`] ends it.
    pub fn open(&mut self, name: &'static str, job: u64, parent: Option<SpanId>) -> SpanId {
        let now = Instant::now();
        self.record(name, job, parent, now, now)
    }

    /// Ends span `id` now.
    pub fn close(&mut self, id: SpanId) {
        self.spans[id].end = Instant::now();
    }

    /// The direct children of `id`.
    pub fn children(&self, id: SpanId) -> impl Iterator<Item = SpanId> + '_ {
        (0..self.spans.len()).filter(move |&k| self.spans[k].parent == Some(id))
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// The span `id`.
    pub fn span(&self, id: SpanId) -> &Span {
        &self.spans[id]
    }

    /// Self time of every span, indexed like the store.
    pub fn self_times(&self) -> Vec<Duration> {
        let mut children: Vec<Vec<SpanId>> = vec![Vec::new(); self.spans.len()];
        for (id, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(id);
            }
        }
        self.spans
            .iter()
            .zip(&children)
            .map(|(s, kids)| {
                let covered = union_within(
                    s.start,
                    s.end,
                    kids.iter()
                        .map(|&k| (self.spans[k].start, self.spans[k].end)),
                );
                s.duration().saturating_sub(covered)
            })
            .collect()
    }

    /// Self times of every span named `name`, in milliseconds.
    pub fn self_ms(&self, name: &str) -> Vec<f64> {
        self.self_times()
            .into_iter()
            .zip(&self.spans)
            .filter(|(_, s)| s.name == name)
            .map(|(d, _)| d.as_secs_f64() * 1e3)
            .collect()
    }

    /// Writes every span as JSON (offsets in µs from the store's
    /// creation) to `path`, creating its directory.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        let us = |t: Instant| t.saturating_duration_since(self.origin).as_secs_f64() * 1e6;
        let self_times = self.self_times();
        let spans = self
            .spans
            .iter()
            .zip(self_times)
            .enumerate()
            .map(|(id, (s, own))| {
                Json::object([
                    ("id", Json::UInt(id as u64)),
                    ("name", Json::Str(s.name.to_string())),
                    ("job", Json::UInt(s.job)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::UInt(p as u64)),
                    ),
                    ("start_us", Json::Num(us(s.start))),
                    ("end_us", Json::Num(us(s.end))),
                    ("self_us", Json::Num(own.as_secs_f64() * 1e6)),
                ])
            })
            .collect();
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, Json::Arr(spans).to_string())
    }
}

/// Total length of the union of `intervals`, each clipped to
/// `[lo, hi]`.
pub fn union_within(
    lo: Instant,
    hi: Instant,
    intervals: impl Iterator<Item = (Instant, Instant)>,
) -> Duration {
    let mut clipped: Vec<(Instant, Instant)> = intervals
        .map(|(a, b)| (a.max(lo), b.min(hi)))
        .filter(|(a, b)| a < b)
        .collect();
    clipped.sort();
    let mut total = Duration::ZERO;
    let mut current: Option<(Instant, Instant)> = None;
    for (a, b) in clipped {
        current = match current {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    if let Some((ca, cb)) = current {
        total += cb - ca;
    }
    total
}

/// Wall time one span costs to record, measured on a scratch store.
pub fn span_cost() -> Duration {
    const N: u32 = 20_000;
    let mut scratch = Tracer::new(Instant::now());
    let t0 = Instant::now();
    for i in 0..N {
        let start = Instant::now();
        scratch.record("calibrate", u64::from(i), None, start, Instant::now());
    }
    std::hint::black_box(&scratch);
    t0.elapsed() / N
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(t0: Instant, ms: u64) -> Instant {
        t0 + Duration::from_millis(ms)
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let t0 = Instant::now();
        let mut tr = Tracer::new(Instant::now());
        let root = tr.record("job", 1, None, at(t0, 0), at(t0, 100));
        // Children cover [10, 40] ∪ [30, 60] = 50 ms, and [90, 120]
        // clipped to the parent = 10 ms: 60 ms covered, 40 ms own.
        let a = tr.record("a", 1, Some(root), at(t0, 10), at(t0, 40));
        tr.record("b", 1, Some(root), at(t0, 30), at(t0, 60));
        tr.record("c", 1, Some(root), at(t0, 90), at(t0, 120));
        // A grandchild counts against its own parent only.
        tr.record("a.inner", 1, Some(a), at(t0, 15), at(t0, 20));
        let own = tr.self_times();
        assert_eq!(own[root], Duration::from_millis(40));
        assert_eq!(own[a], Duration::from_millis(25));
        assert_eq!(tr.self_ms("b"), vec![30.0]);
    }

    #[test]
    fn union_merges_nested_and_disjoint_intervals() {
        let t0 = Instant::now();
        let iv = [(5, 50), (10, 20), (60, 70), (70, 80)];
        let u = union_within(
            at(t0, 0),
            at(t0, 100),
            iv.iter().map(|&(a, b)| (at(t0, a), at(t0, b))),
        );
        assert_eq!(u, Duration::from_millis(65));
        assert_eq!(
            union_within(at(t0, 0), at(t0, 10), std::iter::empty()),
            Duration::ZERO
        );
    }

    #[test]
    fn open_close_nest_children_under_their_parent() {
        let mut tr = Tracer::new(Instant::now());
        let root = tr.open("job", 9, None);
        let a = tr.open("a", 9, Some(root));
        tr.close(a);
        let b = tr.open("b", 9, Some(root));
        tr.close(b);
        tr.close(root);
        assert_eq!(tr.children(root).collect::<Vec<_>>(), vec![a, b]);
        assert!(tr.span(root).end >= tr.span(b).end);
    }

    #[test]
    fn recording_a_span_is_cheap() {
        assert!(span_cost() < Duration::from_millis(1));
    }
}
