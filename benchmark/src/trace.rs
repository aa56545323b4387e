//! Spans recorded by the harness around its calls into each layer, kept
//! in memory and written out when the traced pass ends. Spans inside the
//! program are a later issue; these are all taken from outside.

use std::time::Instant;

use serde::json::Value as Json;

/// One recorded interval. `parent` indexes the span that caused it (a
/// job span has none); spans of one job share `job`.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub job: u64,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// The span store of one thread of a traced pass.
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    /// A tracer whose clock starts at `origin`; tracers that will be
    /// [`absorb`](Tracer::absorb)ed into one another must share it.
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            origin,
            spans: Vec::new(),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.duration_since(self.origin).as_nanos() as u64
    }

    /// Opens the span of job `job`; it closes when the scope drops.
    pub fn job(&mut self, job: u64) -> Scope<'_> {
        let now = self.ns(Instant::now());
        self.spans.push(Span {
            name: "job".to_string(),
            start_ns: now,
            end_ns: now,
            parent: None,
            job,
        });
        Scope {
            id: self.spans.len() - 1,
            job,
            tracer: self,
        }
    }

    /// Appends the spans of another thread or lap, re-basing their
    /// parent links and moving their job numbers past this tracer's, so
    /// that spans share a number only when they share a job.
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len();
        let jobs = self.spans.iter().map(|s| s.job + 1).max().unwrap_or(0);
        self.spans.extend(other.spans.into_iter().map(|mut span| {
            span.parent = span.parent.map(|p| p + offset);
            span.job += jobs;
            span
        }));
    }

    /// Durations, in seconds, of every span called `name`.
    pub fn seconds_of(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::seconds)
            .collect()
    }

    /// The share of all job spans that their direct child spans cover,
    /// in percent. Children may overlap (the daemon's own wall overlaps
    /// the client's stream), so each job counts the union.
    pub fn coverage_pct(&self) -> f64 {
        let mut covered = 0u64;
        let mut total = 0u64;
        for (id, job) in self.spans.iter().enumerate() {
            if job.parent.is_some() {
                continue;
            }
            total += job.end_ns - job.start_ns;
            let mut children: Vec<(u64, u64)> = self
                .spans
                .iter()
                .filter(|s| s.parent == Some(id))
                .map(|s| (s.start_ns.max(job.start_ns), s.end_ns.min(job.end_ns)))
                .collect();
            children.sort_unstable();
            let mut reach = job.start_ns;
            for (start, end) in children {
                if end > reach {
                    covered += end - start.max(reach);
                    reach = end;
                }
            }
        }
        if total == 0 {
            return 0.0;
        }
        100.0 * covered as f64 / total as f64
    }

    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Json::Obj(vec![
                        ("name".to_string(), s.name.as_str().into()),
                        ("start_ns".to_string(), s.start_ns.into()),
                        ("end_ns".to_string(), s.end_ns.into()),
                        (
                            "parent".to_string(),
                            s.parent.map_or(Json::Null, Json::from),
                        ),
                        ("job".to_string(), s.job.into()),
                    ])
                })
                .collect(),
        )
    }
}

/// An open job span; child spans recorded through it name it as parent.
pub struct Scope<'a> {
    tracer: &'a mut Tracer,
    id: usize,
    job: u64,
}

impl Scope<'_> {
    /// Records `[start, end]` as a child span.
    pub fn record(&mut self, name: &str, start: Instant, end: Instant) {
        let span = Span {
            name: name.to_string(),
            start_ns: self.tracer.ns(start),
            end_ns: self.tracer.ns(end),
            parent: Some(self.id),
            job: self.job,
        };
        self.tracer.spans.push(span);
    }

    /// Runs `f` inside a child span.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        self.record(name, start, Instant::now());
        out
    }
}

impl Drop for Scope<'_> {
    fn drop(&mut self) {
        self.tracer.spans[self.id].end_ns = self.tracer.ns(Instant::now());
    }
}

/// [`Scope::span`] when tracing, a plain call when not.
pub fn span<R>(scope: &mut Option<&mut Scope<'_>>, name: &str, f: impl FnOnce() -> R) -> R {
    match scope {
        Some(scope) => scope.span(name, f),
        None => f(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.to_string(),
            start_ns,
            end_ns,
            parent,
            job: 0,
        }
    }

    #[test]
    fn coverage_counts_the_union_of_direct_children() {
        let mut tracer = Tracer::new(Instant::now());
        tracer.spans = vec![
            span("job", 0, 100, None),
            span("a", 0, 40, Some(0)),
            span("b", 30, 60, Some(0)),    // overlaps a: adds 20
            span("c", 80, 120, Some(0)),   // clipped to the job: adds 20
            span("deep", 0, 100, Some(1)), // not a direct child
        ];
        assert_eq!(tracer.coverage_pct(), 80.0);
        assert_eq!(tracer.seconds_of("b"), [30e-9]);
    }

    #[test]
    fn scopes_nest_spans_under_their_job_and_absorb_rebases() {
        let origin = Instant::now();
        let mut first = Tracer::new(origin);
        first.job(0).span("x", || ());
        let mut second = Tracer::new(origin);
        second.job(0).span("y", || ());
        first.absorb(second);
        let names: Vec<_> = first
            .spans
            .iter()
            .map(|s| (s.name.as_str(), s.parent))
            .collect();
        assert_eq!(
            names,
            [("job", None), ("x", Some(0)), ("job", None), ("y", Some(2))]
        );
        assert!(first.spans[0].end_ns >= first.spans[1].end_ns);
        let jobs: Vec<u64> = first.spans.iter().map(|s| s.job).collect();
        assert_eq!(jobs, [0, 0, 1, 1], "job numbers stay apart");
    }
}
