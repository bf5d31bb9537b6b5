//! The span recorder of the traced run.
//!
//! Spans are recorded by the benchmark around calls into each layer's public
//! functions (nothing inside the program is instrumented). Each span has a
//! name, start and end (host time, nanoseconds since the tracer was made),
//! the index of the span that was open when it started, and the round it
//! belongs to. Spans stay in memory and are written out once, at the end.
//!
//! A disabled tracer reads no clock and records nothing, so running the same
//! code with it gives the untraced wall time the tracing overhead is
//! measured against.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `netsim.event_loop_s`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's origin.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The traced round the span belongs to.
    pub round: u32,
}

impl Span {
    /// Duration in seconds.
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// The recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    counts: Vec<(&'static str, u32, f64)>,
    round: u32,
}

impl Tracer {
    /// A recorder; `enabled = false` makes every call a no-op.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            counts: Vec::new(),
            round: 0,
        }
    }

    /// Turns recording on or off (between components, never inside one).
    pub fn set_enabled(&mut self, enabled: bool) {
        debug_assert!(self.open.is_empty(), "toggled inside an open span");
        self.enabled = enabled;
    }

    /// Starts a new round; later spans are tagged with it.
    pub fn set_round(&mut self, round: u32) {
        self.round = round;
    }

    /// The current time, or `None` when disabled (no clock read).
    pub fn now(&self) -> Option<Instant> {
        self.enabled.then(Instant::now)
    }

    /// Records a span between two [`Tracer::now`] readings.
    /// Nothing is recorded while the tracer is disabled.
    pub fn record(&mut self, name: &'static str, start: Option<Instant>, end: Option<Instant>) {
        if let (true, Some(start), Some(end)) = (self.enabled, start, end) {
            self.spans.push(Span {
                name,
                start_ns: self.nanos(start),
                end_ns: self.nanos(end),
                parent: self.open.last().copied(),
                round: self.round,
            });
        }
    }

    /// Runs `f` inside a span named `name`; spans `f` records are its
    /// children.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        let start = Instant::now();
        self.spans.push(Span {
            name,
            start_ns: self.nanos(start),
            end_ns: self.nanos(start),
            parent: self.open.last().copied(),
            round: self.round,
        });
        self.open.push(index);
        let result = f(self);
        self.open.pop();
        let end = self.nanos(Instant::now());
        self.spans[index].end_ns = end;
        result
    }

    /// Records a count (events, bytes) observed at a layer boundary.
    pub fn record_count(&mut self, name: &'static str, value: f64) {
        if self.enabled {
            self.counts.push((name, self.round, value));
        }
    }

    fn nanos(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Every recorded span.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per round, the durations (seconds) of the spans named `name`; rounds
    /// without such a span are left out.
    pub fn by_round(&self, name: &str) -> Vec<Vec<f64>> {
        let mut rounds: BTreeMap<u32, Vec<f64>> = BTreeMap::new();
        for span in self.spans.iter().filter(|span| span.name == name) {
            rounds.entry(span.round).or_default().push(span.seconds());
        }
        rounds.into_values().collect()
    }

    /// Per round, the summed duration (seconds) of the spans named `name`.
    pub fn per_round(&self, name: &str) -> Vec<f64> {
        self.by_round(name)
            .iter()
            .map(|durations| durations.iter().sum())
            .collect()
    }

    /// Per round, the summed value of the counts named `name`.
    pub fn count_per_round(&self, name: &str) -> Vec<f64> {
        let mut rounds: BTreeMap<u32, f64> = BTreeMap::new();
        for (_, round, value) in self.counts.iter().filter(|(count, _, _)| *count == name) {
            *rounds.entry(*round).or_insert(0.0) += value;
        }
        rounds.into_values().collect()
    }

    /// Every duration (seconds) of the spans named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|span| span.name == name)
            .map(Span::seconds)
            .collect()
    }

    /// Self time of span `index`: its duration minus the part of its
    /// interval its direct children cover.
    pub fn self_seconds(&self, index: usize) -> f64 {
        let children: u64 = self
            .spans
            .iter()
            .filter(|span| span.parent == Some(index))
            .map(|span| span.end_ns - span.start_ns)
            .sum();
        let own = self.spans[index].end_ns - self.spans[index].start_ns;
        own.saturating_sub(children) as f64 / 1e9
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (index, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {index}, \"name\": \"{}\", \"round\": {}, \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"self_s\": {}}}",
                span.name,
                span.round,
                span.start_ns,
                span.end_ns,
                self.self_seconds(index)
            )?;
        }
        for (name, round, value) in &self.counts {
            writeln!(
                out,
                "{{\"count\": \"{name}\", \"round\": {round}, \"value\": {value}}}"
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_a_disabled_tracer_records_nothing() {
        let mut tracer = Tracer::new(true);
        tracer.span("outer", |t| {
            t.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        assert_eq!(tracer.spans().len(), 2);
        assert_eq!(tracer.spans()[1].parent, Some(0));
        assert!(tracer.self_seconds(0) < tracer.spans()[0].seconds());
        assert_eq!(tracer.per_round("inner").len(), 1);

        let mut off = Tracer::new(false);
        assert_eq!(off.span("outer", |_| 7), 7);
        assert!(off.now().is_none());
        assert!(off.spans().is_empty());
    }
}
