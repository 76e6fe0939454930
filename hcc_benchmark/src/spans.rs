//! Wall-clock spans recorded from the benchmark's own code around each
//! call into a layer. Spans stay in memory and are written once, at exit,
//! as Chrome trace events (open the file in Perfetto).

use std::time::{Duration, Instant};

use hcc_types::json::Json;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub workload: &'static str,
    /// Offsets from the tracer's epoch.
    pub start: Duration,
    pub end: Duration,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Built from a layer's own counters (engine stats) instead of timed
    /// around a call: the duration is measured, the placement at the
    /// parent's start is not.
    pub aggregate: bool,
}

impl Span {
    pub fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// A span recorder that costs one branch per span when disabled, so the
/// traced and untimed-by-tracing iterations run the same code.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    workload: &'static str,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            workload: "",
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Tags every following span with `workload`.
    pub fn set_workload(&mut self, workload: &'static str) {
        self.workload = workload;
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let start = self.epoch.elapsed();
        self.spans.push(Span {
            name,
            workload: self.workload,
            start,
            end: start,
            parent: self.open.last().copied(),
            aggregate: false,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end = self.epoch.elapsed();
        out
    }

    /// The most recent span called `name`.
    pub fn last(&self, name: &str) -> Option<usize> {
        self.spans.iter().rposition(|s| s.name == name)
    }

    /// Duration of the most recent span called `name`.
    pub fn last_duration(&self, name: &str) -> Option<Duration> {
        self.last(name).map(|i| self.spans[i].duration())
    }

    /// Records an aggregate child of span `parent`, placed at its start.
    pub fn aggregate(&mut self, parent: usize, name: &'static str, dur: Duration) -> usize {
        let start = self.spans[parent].start;
        self.spans.push(Span {
            name,
            workload: self.spans[parent].workload,
            start,
            end: start + dur,
            parent: Some(parent),
            aggregate: true,
        });
        self.spans.len() - 1
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Chrome trace-event JSON: one complete (`"ph":"X"`) event per span,
    /// one thread per workload.
    pub fn to_chrome(&self) -> String {
        let mut threads: Vec<&'static str> = Vec::new();
        for s in &self.spans {
            if !threads.contains(&s.workload) {
                threads.push(s.workload);
            }
        }
        let tid = |w: &str| threads.iter().position(|t| *t == w).unwrap_or(0) as u64;
        let us = |d: Duration| d.as_nanos() as f64 / 1e3;
        let field = |k: &str, v: Json| (k.to_string(), v);
        let mut events: Vec<Json> = threads
            .iter()
            .map(|w| {
                Json::Obj(vec![
                    field("name", Json::Str("thread_name".into())),
                    field("ph", Json::Str("M".into())),
                    field("pid", Json::U64(1)),
                    field("tid", Json::U64(tid(w))),
                    field(
                        "args",
                        Json::Obj(vec![field("name", Json::Str((*w).into()))]),
                    ),
                ])
            })
            .collect();
        events.extend(self.spans.iter().map(|s| {
            let parent = s
                .parent
                .map_or(Json::Null, |p| Json::Str(self.spans[p].name.into()));
            Json::Obj(vec![
                field("name", Json::Str(s.name.into())),
                field("cat", Json::Str(s.workload.into())),
                field("ph", Json::Str("X".into())),
                field("ts", Json::F64(us(s.start))),
                field("dur", Json::F64(us(s.duration()))),
                field("pid", Json::U64(1)),
                field("tid", Json::U64(tid(s.workload))),
                field(
                    "args",
                    Json::Obj(vec![
                        field("parent", parent),
                        field("aggregate", Json::Bool(s.aggregate)),
                    ]),
                ),
            ])
        }));
        Json::Arr(events).to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_export_as_chrome_events() {
        let mut tr = Tracer::new(true);
        tr.set_workload("serve");
        tr.span("iteration", |tr| tr.span("soak", |_| ()));
        let root = tr.last("iteration").unwrap();
        tr.aggregate(root, "engine.batch", Duration::from_micros(5));
        let spans = tr.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start <= spans[1].start && spans[1].end <= spans[0].end);
        let doc = Json::parse(&tr.to_chrome()).expect("chrome export parses");
        let events = doc.as_array().unwrap();
        assert_eq!(events.len(), 4); // thread name + three spans
        assert_eq!(
            events[2].get("args").and_then(|a| a.get("parent")),
            Some(&Json::Str("iteration".into()))
        );
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(false);
        assert_eq!(tr.span("iteration", |_| 7), 7);
        assert!(tr.spans().is_empty());
        assert_eq!(tr.last_duration("iteration"), None);
    }
}
