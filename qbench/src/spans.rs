//! In-memory spans recorded by the benchmark around its calls into each
//! layer. A disabled [`Tracer`] reads no clock and records nothing, so
//! traced and untraced passes run the same calls.

use std::collections::BTreeMap;
use std::time::Instant;

/// One timed interval. `id` is the span's index in its trace; spans of
/// one job share `job`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Job (request) the span belongs to.
    pub job: u64,
    /// Index of the span in its trace.
    pub id: usize,
    /// The enclosing span, if any.
    pub parent: Option<usize>,
    /// Layer name, e.g. `core.routing`.
    pub name: &'static str,
    /// Start, in nanoseconds since the trace origin.
    pub start_ns: u64,
    /// End, in nanoseconds since the trace origin.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records nested spans for one thread.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    job: u64,
    open: Vec<usize>,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer whose timestamps count from `origin`; a disabled one
    /// records nothing.
    pub fn new(enabled: bool, origin: Instant) -> Self {
        Tracer {
            enabled,
            origin,
            job: 0,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Runs `f` inside a span named `name`, nested in the innermost open
    /// span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            job: self.job,
            id,
            parent: self.open.last().copied(),
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// [`Tracer::span`] for the root span of job `job`: it and every span
    /// opened inside it carry that job id.
    pub fn job<R>(&mut self, job: u64, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        let outer = std::mem::replace(&mut self.job, job);
        let out = self.span(name, f);
        self.job = outer;
        out
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Moves `other`'s spans (recorded against the same origin) into this
    /// trace, renumbering their ids.
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|s| Span {
            id: s.id + offset,
            parent: s.parent.map(|p| p + offset),
            ..s
        }));
    }

    /// The recorded spans, indexed by id.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (overlapping children count once).
/// `spans[i].id` must equal `i`.
pub fn self_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut cursor = s.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(cursor);
                let end = end.min(s.end_ns);
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            s.ns() - covered
        })
        .collect()
}

/// Per name: total duration and total self time, in nanoseconds.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut totals: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_ns(spans)) {
        let entry = totals.entry(s.name).or_default();
        entry.0 += s.ns();
        entry.1 += own;
    }
    totals
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            job: 0,
            id,
            parent,
            name: "x",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = [
            span(0, None, 0, 100),
            span(1, Some(0), 10, 30),
            span(2, Some(0), 50, 90),
            span(3, Some(2), 60, 70),
        ];
        assert_eq!(self_ns(&spans), [40, 20, 30, 10]);
    }

    #[test]
    fn overlapping_children_count_once_and_are_clipped() {
        let spans = [
            span(0, None, 100, 200),
            span(1, Some(0), 90, 130),  // starts before the parent
            span(2, Some(0), 120, 150), // overlaps the first child
            span(3, Some(0), 190, 250), // ends after the parent
        ];
        // Covered: [100,150) and [190,200) = 60 of 100.
        assert_eq!(self_ns(&spans)[0], 40);
    }

    #[test]
    fn a_leaf_is_all_self_time() {
        assert_eq!(self_ns(&[span(0, None, 5, 17)]), [12]);
        assert!(self_ns(&[]).is_empty());
    }

    #[test]
    fn tracer_nests_and_tags_jobs() {
        let mut t = Tracer::new(true, Instant::now());
        t.span("pass", |t| {
            t.job(7, "job", |t| t.span("stage", |_| ()));
            t.span("tail", |_| ());
        });
        let s = t.spans();
        assert_eq!(s.len(), 4);
        assert_eq!((s[0].name, s[0].parent, s[0].job), ("pass", None, 0));
        assert_eq!((s[1].name, s[1].parent, s[1].job), ("job", Some(0), 7));
        assert_eq!((s[2].name, s[2].parent, s[2].job), ("stage", Some(1), 7));
        assert_eq!((s[3].name, s[3].parent, s[3].job), ("tail", Some(0), 0));
        assert!(s.iter().all(|x| x.start_ns <= x.end_ns));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        assert_eq!(t.span("pass", |t| t.span("stage", |_| 3)), 3);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn absorb_renumbers_ids_and_parents() {
        let origin = Instant::now();
        let mut a = Tracer::new(true, origin);
        a.span("a", |_| ());
        let mut b = Tracer::new(true, origin);
        b.span("b", |t| t.span("c", |_| ()));
        a.absorb(b);
        let ids: Vec<(usize, Option<usize>)> = a.spans().iter().map(|s| (s.id, s.parent)).collect();
        assert_eq!(ids, [(0, None), (1, None), (2, Some(1))]);
    }

    #[test]
    fn totals_sum_durations_and_self_times_per_name() {
        let mut spans = vec![span(0, None, 0, 100), span(1, Some(0), 10, 40)];
        spans[1].name = "y";
        spans.push(Span {
            name: "y",
            ..span(2, Some(0), 50, 60)
        });
        let totals = totals_by_name(&spans);
        assert_eq!(totals["x"], (100, 60));
        assert_eq!(totals["y"], (40, 40));
    }
}
